"""Tests for the DeductiveDatabase session facade."""

import sys
import threading

import pytest

from repro.datalog.errors import (DatalogSyntaxError, EvaluationError,
                                  RuleValidationError)
from repro.engine import (ENGINES, EvaluationStats, Query, SemiNaiveEngine,
                          Tracer)
from repro.session import DeductiveDatabase

GENEALOGY = """
    parent(ann, bea).  parent(bea, cal).  parent(cal, dee).
    female(ann). female(cal).
    mother(x, y) :- parent(x, y), female(x).
    anc(x, y) :- parent(x, z), anc(z, y).
    anc(x, y) :- parent(x, y).
    matriline(x, y) :- mother(x, z), matriline(z, y).
    matriline(x, y) :- mother(x, y).
"""


@pytest.fixture
def ddb():
    session = DeductiveDatabase()
    session.load(GENEALOGY)
    return session


class TestLoading:
    def test_rules_and_facts_split(self, ddb):
        assert len(ddb.program.rules) == 5
        assert ddb.idb_predicates == {"mother", "anc", "matriline"}

    def test_add_fact_and_rule_incrementally(self):
        session = DeductiveDatabase()
        session.add_rule("p(x, y) :- e(x, y).")
        session.add_fact("e", "a", "b")
        assert session.query("p(X, Y)") == {("a", "b")}

    def test_add_facts_bulk(self):
        session = DeductiveDatabase()
        session.add_facts("e", [("a", "b"), ("b", "c")])
        assert session.query(Query.parse("e(X, Y)")) == {
            ("a", "b"), ("b", "c")}

    def test_non_ground_fact_rejected(self):
        """Regression: a fact atom carrying a variable used to be
        silently truncated to the prefix of its constant arguments."""
        from repro.datalog.atoms import Atom
        from repro.datalog.terms import Constant, Variable
        session = DeductiveDatabase()
        with pytest.raises(RuleValidationError, match="not ground"):
            session._add_fact_atom(
                Atom("parent", (Variable("X"), Constant("bea"))))
        # nothing was half-loaded
        assert session._edb.total_facts() == 0

    @pytest.mark.parametrize("rule", ["P(x) :- A(y).",
                                      "P(x, y) :- A(x, z), P(z, x)."])
    def test_rule_that_is_not_range_restricted_is_rejected(self, rule):
        """Regression: a non-recursive view with a head variable
        missing from its body was accepted, and every query of it
        failed with a KeyError out of the conjunctive solver."""
        session = DeductiveDatabase()
        with pytest.raises(RuleValidationError,
                           match="not range restricted"):
            session.add_rule(rule)
        with pytest.raises(RuleValidationError,
                           match="not range restricted"):
            session.load(f"A(a, b). {rule}")
        assert session.program.rules == ()


class TestWriteBatch:
    def test_applies_removals_then_additions_then_rules(self, ddb):
        ddb.write_batch(add={"parent": [("dee", "eve")]},
                        remove={"parent": [("ann", "bea")]},
                        rules=["kin(x, y) :- anc(x, y)."])
        assert ddb.query("kin(bea, Y)") == {
            ("bea", "cal"), ("bea", "dee"), ("bea", "eve")}
        assert ddb.query("anc(ann, Y)") == set()

    @pytest.mark.parametrize("batch", [
        {"add": {"parent": [("dee", "eve")]},
         "rules": ["this is not a rule"]},
        {"add": {"parent": [("dee", "eve")]},
         "rules": ["kin(x, y) :- anc(x, y).", "kin(x) :- anc(y, y)."]},
        {"add": {"parent": [("dee", "eve"), ("eve",)]}},
        {"remove": {"parent": [("ann", "bea")]},
         "add": {"parent": [("dee", "eve")], "female": [("eve", "x")]}},
        {"add": {"new": [("a",), ("b", "c")]}},
    ])
    def test_a_failing_batch_leaves_nothing_behind(self, ddb, batch):
        """Regression: removals, additions and rules written before the
        failing part of a batch used to stay in the session."""
        before = (ddb.program.rules, ddb._edb.global_version(),
                  len(ddb._edb.symbols))
        with pytest.raises((EvaluationError, RuleValidationError,
                            DatalogSyntaxError)):
            ddb.write_batch(**batch)
        assert (ddb.program.rules, ddb._edb.global_version(),
                len(ddb._edb.symbols)) == before
        assert ddb.query("anc(ann, Y)") == {
            ("ann", "bea"), ("ann", "cal"), ("ann", "dee")}


class TestStructure:
    def test_system_for_recursive_predicate(self, ddb):
        system = ddb.system_for("anc")
        assert system is not None
        assert system.predicate == "anc"
        assert len(system.exits) == 1

    def test_system_for_view_is_none(self, ddb):
        assert ddb.system_for("mother") is None

    def test_classification_cached(self, ddb):
        first = ddb.classification("anc")
        second = ddb.classification("anc")
        assert first is second
        assert first.is_strongly_stable

    def test_classification_of_view_rejected(self, ddb):
        with pytest.raises(EvaluationError):
            ddb.classification("mother")

    def test_mutual_recursion_rejected(self):
        session = DeductiveDatabase()
        session.load("""
            p(x) :- q(x).
            q(x) :- p(x).
        """)
        with pytest.raises(RuleValidationError, match="mutually"):
            session.materialise()

    @pytest.mark.parametrize("rules", [
        ["kin(z, y) :- anc(a, y, z)."],       # an IDB predicate
        ["kin(x, y) :- parent(x, y, y)."],    # an EDB predicate
        ["kin(x, y) :- anc(x, y).",           # the head of another rule
         "kin(x) :- parent(x, y)."],
    ])
    def test_atom_of_the_wrong_arity_rejected(self, ddb, rules):
        """Regression: a rule using a predicate with another arity was
        evaluated, and its query failed with a KeyError."""
        for rule in rules:
            ddb.add_rule(rule)
        with pytest.raises(RuleValidationError, match="has arity"):
            ddb.query("kin(X, Y)")

    def test_recursive_without_exit_rejected(self):
        session = DeductiveDatabase()
        session.add_rule("p(x, y) :- e(x, z), p(z, y).")
        with pytest.raises(RuleValidationError, match="no exit"):
            session.query("p(a, Y)")


class TestQuerying:
    def test_edb_query(self, ddb):
        assert ddb.query("parent(ann, Y)") == {("ann", "bea")}

    def test_view_query(self, ddb):
        assert ddb.query("mother(X, Y)") == {("ann", "bea"),
                                             ("cal", "dee")}

    def test_recursion_over_base(self, ddb):
        assert sorted(ddb.query("anc(ann, Y)")) == [
            ("ann", "bea"), ("ann", "cal"), ("ann", "dee")]

    def test_recursion_over_view(self, ddb):
        """matriline recurses through the *mother* view — stratified
        evaluation materialises the view first."""
        assert ddb.query("matriline(ann, Y)") == {("ann", "bea")}
        assert ddb.query("matriline(cal, Y)") == {("cal", "dee")}

    def test_unknown_predicate_rejected(self, ddb):
        """No rule and no facts mention the predicate: a clear error,
        not a silently empty result (regression: used to return
        ``frozenset()``)."""
        with pytest.raises(EvaluationError, match="unknown predicate"):
            ddb.query("nothing(X)")

    def test_arity_mismatch_rejected(self, ddb):
        with pytest.raises(EvaluationError, match="arity"):
            ddb.query("anc(A, B, C)")
        with pytest.raises(EvaluationError, match="arity"):
            ddb.query("parent(A, B, C)")

    def test_stats_filled(self, ddb):
        stats = EvaluationStats()
        ddb.query("anc(ann, Y)", stats=stats)
        assert stats.answers == 3
        assert stats.probes > 0

    def test_stats_filled_on_view_path(self, ddb):
        """Regression: the non-recursive-view path used to leave the
        caller's stats object untouched."""
        stats = EvaluationStats()
        answers = ddb.query("mother(X, Y)", stats=stats)
        assert stats.engine == "view"
        assert stats.answers == len(answers) == 2

    def test_stats_filled_on_edb_path(self, ddb):
        stats = EvaluationStats()
        answers = ddb.query("parent(ann, Y)", stats=stats)
        assert stats.engine == "edb"
        assert stats.answers == len(answers) == 1

    def test_matches_plain_engine(self, ddb):
        answers = ddb.query("anc(X, Y)")
        system = ddb.system_for("anc")
        direct = SemiNaiveEngine().evaluate(system, ddb.materialise())
        assert answers == direct


class TestPlanCache:
    def test_same_adornment_reuses_plan(self, ddb):
        ddb.query("anc(ann, Y)")
        first = ddb._plan_cache[("anc", frozenset({0}))]
        ddb.query("anc(bea, Y)")   # same form, different constant
        assert ddb._plan_cache[("anc", frozenset({0}))] is first

    def test_new_rule_invalidates(self, ddb):
        ddb.query("anc(ann, Y)")
        assert ddb._plan_cache
        ddb.add_rule("other(x, y) :- parent(x, y).")
        assert not ddb._plan_cache

    def test_new_fact_keeps_plans_but_rematerialises(self, ddb):
        ddb.query("matriline(ann, Y)")
        before = ddb.query("anc(ann, Y)")
        ddb.add_fact("parent", "dee", "eve")
        after = ddb.query("anc(ann, Y)")
        assert ("ann", "eve") in after
        assert len(after) == len(before) + 1


class TestExplain:
    def test_explain_recursive(self, ddb):
        text = ddb.explain("anc(ann, Y)")
        assert "strategy:   stable" in text
        assert "σparent^k" in text

    def test_explain_view(self, ddb):
        assert "not recursive" in ddb.explain("mother(X, Y)")


class TestEngineParameter:
    @pytest.mark.parametrize("engine", ["compiled", "semi-naive",
                                        "naive", "top-down"])
    def test_every_engine_choice_agrees(self, ddb, engine):
        answers = ddb.query("anc(ann, Y)", engine=engine)
        assert answers == ddb.query("anc(ann, Y)")

    def test_unknown_engine_raises(self, ddb):
        """Regression: an unknown engine name used to surface as a raw
        ``KeyError`` from the engine-registry lookup."""
        with pytest.raises(EvaluationError, match="unknown engine"):
            ddb.query("anc(ann, Y)", engine="quantum")


class TestSharedEdb:
    """A recursive predicate with no IDB predicate below it is
    evaluated on the session's EDB itself, not on a per-query copy:
    its join tables outlive the query, and no engine may write to
    it."""

    @staticmethod
    def _session() -> DeductiveDatabase:
        session = DeductiveDatabase()
        session.load(GENEALOGY)
        return session

    @staticmethod
    def _snapshot(edb) -> tuple:
        return ({name: edb.rows_encoded(name)
                 for name in edb.relation_names},
                {name: edb.version(name) for name in edb.relation_names},
                edb.global_version())

    @pytest.mark.parametrize("engine", ["compiled", "semi-naive",
                                        "top-down"])
    def test_second_bound_query_rebuilds_no_index(self, engine):
        session = self._session()
        edb = session._edb
        session.query("anc(ann, Y)", engine=engine)
        first = edb.hash_builds
        assert first > 0   # built on the session's own EDB
        session.query("anc(bea, Y)", engine=engine)
        assert edb.hash_builds == first
        # a fork_reader snapshot shares every table: the same query,
        # evaluated again (an active tracer skips the answer cache),
        # builds none
        fork = session.fork_reader()
        assert fork.query("anc(ann, Y)", engine=engine,
                          trace=Tracer()) == session.query("anc(ann, Y)")
        assert fork._edb.hash_builds == 0

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("text", ["anc(ann, Y)", "anc(X, dee)",
                                      "anc(X, Y)", "anc(ann, cal)"])
    def test_query_leaves_the_edb_unchanged(self, engine, text):
        expected = self._session().query(text, engine="semi-naive")
        session = self._session()
        before = self._snapshot(session._edb)
        assert session.query(text, engine=engine) == expected
        assert self._snapshot(session._edb) == before
        # on a read-only fork every write raises
        fork = self._session().fork_reader()
        assert fork.query(text, engine=engine) == expected


class TestAnswerCache:
    def test_concurrent_readers_keep_the_lru_bounded(self, monkeypatch):
        """Regression: eviction popped ``next(iter(cache))`` while other
        readers of the same fork were inserting into the shared dict."""
        monkeypatch.setattr(DeductiveDatabase, "_ANSWER_CACHE_LIMIT", 4)
        session = DeductiveDatabase()
        session.load("anc(x, y) :- parent(x, z), anc(z, y).\n"
                     "anc(x, y) :- parent(x, y).")
        session.add_facts("parent", [(f"p{i}", f"p{i + 1}")
                                     for i in range(10)])
        # more distinct keys than the limit, so every pass evicts
        keys = [(f"anc(p{i}, Y)", engine) for i in range(10)
                for engine in ("compiled", "semi-naive")]
        expected = {key: session.query(key[0], engine=key[1],
                                       trace=Tracer())
                    for key in keys}
        reader = session.fork_reader()
        barrier = threading.Barrier(8, timeout=30)
        failures: list[str] = []

        def ask(offset: int) -> None:
            barrier.wait()
            try:
                for step in range(5 * len(keys)):
                    text, engine = key = keys[(offset + step) % len(keys)]
                    if reader.query(text, engine=engine) != expected[key]:
                        failures.append(f"wrong answers for {key}")
            except Exception as error:  # surfaced by the assert below
                failures.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(n * 3,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(reader._answer_cache) <= 4


class TestProve:
    def test_derivations_for_answers(self, ddb):
        derivations = ddb.prove("anc(ann, Y)")
        assert len(derivations) == 3
        rendered = derivations[0].render()
        assert "anc(ann, bea)" in rendered

    def test_limit(self, ddb):
        assert len(ddb.prove("anc(ann, Y)", limit=1)) == 1

    def test_prove_through_views(self, ddb):
        """Provenance for a recursion over a materialised view shows
        the view's tuples as EDB facts of that stratum."""
        derivations = ddb.prove("matriline(ann, Y)")
        assert len(derivations) == 1
        assert "mother(ann, bea)" in derivations[0].render()

    def test_prove_view_rejected(self, ddb):
        from repro.datalog.errors import EvaluationError
        with pytest.raises(EvaluationError):
            ddb.prove("mother(X, Y)")
