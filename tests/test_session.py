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

    def test_failed_load_writes_nothing(self, ddb):
        """A program is one write batch.  Regression: ``load`` wrote
        its rules and facts one at a time, so a program whose last
        fact failed left the rest behind."""
        before = (ddb.program.rules, ddb._edb.relation_names,
                  ddb._edb.global_version(), len(ddb._edb.symbols))
        with pytest.raises(EvaluationError, match="arity mismatch"):
            ddb.load("kin(x, y) :- parent(x, y).  sibling(bea, cal).\n"
                     "new(ann).  new(bea, cal).")
        assert (ddb.program.rules, ddb._edb.relation_names,
                ddb._edb.global_version(), len(ddb._edb.symbols)) == before

    def test_load_returns_the_program(self):
        program = DeductiveDatabase().load(GENEALOGY + "?- anc(ann, Y).")
        assert (len(program.rules), len(program.facts),
                [str(goal) for goal in program.queries]) == (
            5, 5, ["anc(ann, Y)"])

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


class TestRemoveFact:
    def test_reports_whether_the_row_was_present(self, ddb):
        assert ddb.remove_fact("parent", "bea", "cal") is True
        assert ddb.remove_fact("parent", "bea", "cal") is False

    @pytest.mark.parametrize("engine", ["compiled", "semi-naive"])
    def test_cached_answer_loses_the_derived_row(self, ddb, engine):
        assert ddb.query("anc(ann, Y)", engine=engine) == {
            ("ann", "bea"), ("ann", "cal"), ("ann", "dee")}
        cached = EvaluationStats()
        ddb.query("anc(ann, Y)", stats=cached, engine=engine)
        assert cached.answer_cache_hits == 1
        ddb.remove_fact("parent", "bea", "cal")
        assert ddb.query("anc(ann, Y)", engine=engine) == {("ann", "bea")}

    @pytest.mark.parametrize("row", [("bea", "cal"), ("bea", "zed")])
    def test_fork_reader_raises(self, ddb, row):
        """A read-only snapshot refuses the removal, also of a row
        holding a constant it has never seen."""
        fork = ddb.fork_reader()
        with pytest.raises(EvaluationError, match="read-only"):
            fork.remove_fact("parent", *row)
        assert ("bea", "cal") in fork.query("parent(X, Y)")


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


class TestArityAtWriteTime:
    """A write that would use a predicate with two arities is refused
    before anything is written.  Regression: such a rule or fact was
    accepted, and from then on every query over a rule — even one that
    touches neither predicate — raised ``RuleValidationError``."""

    @pytest.mark.parametrize("batch", [
        {"rules": ["kin(x) :- parent(x)."]},            # a stored relation
        {"rules": ["kin(x) :- anc(x)."]},               # a rule's head
        {"add": {"mother": [("ann",)]}},                # a rule's head
        {"add": {"sibling": [("bea",)]},                # the batch's rule
         "rules": ["kin(x, y) :- sibling(x, y)."]},
        {"rules": ["kin(x, y) :- parent(x, y).", "kin(x) :- female(x)."]},
    ])
    def test_batch_refused_and_nothing_written(self, ddb, batch):
        before = (ddb.program.rules, ddb._edb.global_version(),
                  ddb._edb.relation_names)
        with pytest.raises(RuleValidationError, match="has arity"):
            ddb.write_batch(**batch)
        assert (ddb.program.rules, ddb._edb.global_version(),
                ddb._edb.relation_names) == before
        assert ddb.query("anc(ann, Y)") == {
            ("ann", "bea"), ("ann", "cal"), ("ann", "dee")}

    def test_fact_for_a_relation_a_rule_reads(self):
        session = DeductiveDatabase()
        session.load("p(x, y) :- a(x, y), b(x, y).  a(1, 2).")
        for write in (lambda: session.add_fact("b", "q"),
                      lambda: session.add_facts("b", [("q",)]),
                      lambda: session.load("b(q).")):
            with pytest.raises(RuleValidationError, match="has arity 2"):
                write()
        assert session._edb.arity("b") is None
        session.add_facts("b", [(1, 2)])
        assert session.query("p(X, Y)") == {(1, 2)}

    def test_rule_against_the_store(self):
        session = DeductiveDatabase()
        session.add_facts("a", [(1, 2)])
        with pytest.raises(RuleValidationError, match="has arity 2"):
            session.add_rule("q(x) :- a(x).")
        assert session.program.rules == ()


class TestStoredOrDerived:
    """A predicate is stored or derived, never both.  Regression: facts
    for a rule's head were stored, and read two ways: a view's query
    answered them, a recursion's ignored them."""

    @pytest.mark.parametrize("write", [
        lambda s: s.add_fact("anc", "q", "r"),
        lambda s: s.add_facts("mother", [("q", "r")]),
        lambda s: s.write_batch(add={"anc": [("q", "r")]}),
        lambda s: s.load("matriline(q, r)."),
    ], ids=["add_fact", "add_facts", "write_batch", "load"])
    def test_facts_for_a_derived_predicate_refused(self, ddb, write):
        self._refused(ddb, write, "derived by a rule")

    @pytest.mark.parametrize("write", [
        lambda s: s.add_rule("female(x) :- parent(x, y)."),
        lambda s: s.write_batch(rules=["parent(x, y) :- female(x), "
                                       "female(y)."]),
        lambda s: s.load("female(x) :- parent(y, x)."),
        lambda s: s.write_batch(add={"kin": [("q", "r")]},
                                rules=["kin(x, y) :- parent(x, y)."]),
    ], ids=["add_rule", "write_batch", "load", "same-batch"])
    def test_rule_over_a_stored_predicate_refused(self, ddb, write):
        self._refused(ddb, write, "holds stored facts")

    @staticmethod
    def _refused(ddb, write, message):
        before = (ddb.program.rules, ddb._edb.relation_names,
                  ddb._edb.global_version())
        with pytest.raises(RuleValidationError, match=message):
            write(ddb)
        assert (ddb.program.rules, ddb._edb.relation_names,
                ddb._edb.global_version()) == before
        assert ddb.query("anc(ann, Y)") == {
            ("ann", "bea"), ("ann", "cal"), ("ann", "dee")}


class TestUnparsableQuery:
    """Query text that does not parse closes as any failed query does.
    Regression: it raised before the close, so it moved no
    ``repro_queries_total`` outcome and wrote no log line."""

    def test_counted_and_logged(self):
        import io
        import json

        from repro.logutil import QueryLogger
        from repro.metrics import MetricsRegistry
        session = DeductiveDatabase(metrics=MetricsRegistry(),
                                    query_log=QueryLogger(io.StringIO()))
        session.load(GENEALOGY)
        stats = EvaluationStats()
        with pytest.raises(DatalogSyntaxError):
            session.query("anc(ann, ", stats=stats, engine="semi-naive")
        assert (stats.engine, stats.formula_class) == ("semi-naive",
                                                       "unknown")
        queries = session.metrics.get("repro_queries_total")
        errors = session.metrics.get("repro_query_errors_total")
        assert queries.value(engine="semi-naive", formula_class="unknown",
                             outcome="error") == 1
        assert errors.value(engine="semi-naive",
                            error="DatalogSyntaxError") == 1
        (line,) = map(json.loads,
                      session.query_log.stream.getvalue().splitlines())
        assert {name: line[name] for name in (
            "event", "query", "predicate", "engine", "formula_class",
            "outcome")} == {
            "event": "query", "query": "anc(ann, ", "predicate": None,
            "engine": "semi-naive", "formula_class": "unknown",
            "outcome": "error"}
        assert line["error"].startswith("DatalogSyntaxError: ")


class TestQueryLabels:
    """The query close leaves the query's labels on its stats — bare
    or instrumented, answered, failed or served from the cache."""

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_labels_edb_view_class_and_unknown(self, instrumented):
        import io

        from repro.logutil import QueryLogger
        from repro.metrics import MetricsRegistry
        session = (DeductiveDatabase(metrics=MetricsRegistry(),
                                     query_log=QueryLogger(io.StringIO()))
                   if instrumented else DeductiveDatabase())
        session.load(GENEALOGY)

        def labels(text, engine="compiled"):
            stats = EvaluationStats()
            try:
                session.query(text, stats=stats, engine=engine)
            except Exception:
                pass
            return (stats.engine, stats.formula_class, stats.strategy)

        assert labels("anc(ann, Y)") == ("compiled", "A5", "stable")
        assert labels("anc(X, Y)") == ("compiled", "A5", "iterative")
        assert labels("anc(ann, Y)", "semi-naive") == (
            "semi-naive", "A5", "")
        assert labels("parent(ann, Y)") == ("edb", "edb", "")
        assert labels("mother(X, Y)") == ("view", "view", "")
        # failures: the engine asked for, the class once it resolved
        assert labels("nothing(X)") == ("compiled", "unknown", "")
        assert labels("???not a query") == ("compiled", "unknown", "")
        assert labels("anc(A, B, C)", "naive") == ("naive", "A5", "")
        assert labels("parent(A, B, C)") == ("compiled", "edb", "")
        # a cache hit keeps the class and engine, and ran no strategy
        stats = EvaluationStats()
        session.query("anc(ann, Y)", stats=stats)
        assert stats.answer_cache_hits == 1
        assert (stats.engine, stats.formula_class, stats.strategy,
                stats.backend) == ("compiled", "A5", "", "")

    def test_reused_stats_relabelled_per_query(self, ddb):
        stats = EvaluationStats()
        ddb.query("anc(ann, Y)", stats=stats)
        assert (stats.strategy, stats.backend) == ("stable", "python")
        ddb.query("parent(ann, Y)", stats=stats)
        assert (stats.engine, stats.formula_class, stats.strategy,
                stats.backend) == ("edb", "edb", "", "")


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
        evaluated, and its query failed with a KeyError.  It is now
        refused when it is added, and the session keeps answering."""
        with pytest.raises(RuleValidationError, match="has arity"):
            for rule in rules:
                ddb.add_rule(rule)
        assert len(ddb.program.rules) == 5 + len(rules) - 1
        assert ddb.query("anc(ann, Y)") == {
            ("ann", "bea"), ("ann", "cal"), ("ann", "dee")}

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

    def test_explain_stored_relation(self, ddb):
        assert "stored relation" in ddb.explain("parent(ann, Y)")

    @pytest.mark.parametrize("text,match", [
        ("Q(a)", "unknown predicate"),
        ("anc(ann, bea, cal)", "arity"),
        ("anc(ann)", "arity"),
        ("mother(ann)", "arity"),
        ("parent(ann)", "arity"),
    ])
    def test_explain_refuses_what_query_refuses(self, ddb, text, match):
        with pytest.raises(EvaluationError, match=match):
            ddb.query(text)
        with pytest.raises(EvaluationError, match=match):
            ddb.explain(text)

    def test_explain_shows_the_cached_formula(self, ddb):
        """EXPLAIN prints the plan-cache entry the query runs."""
        text = ddb.explain("anc(ann, Y)")
        (compiled,) = ddb._plan_cache.values()
        assert text == compiled.describe()
        ddb.query("anc(bea, Y)")
        (cached,) = ddb._plan_cache.values()
        assert cached is compiled


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

    def test_prove_resolves_as_explain_does(self, ddb):
        """An unknown predicate or a wrong arity raises ``query``'s
        error, as ``explain`` does; a stored relation and a view are
        not recursive predicates."""
        for text, message in [("nobody(ann, Y)", "unknown predicate"),
                              ("anc(ann)", "has arity 2")]:
            with pytest.raises(EvaluationError, match=message) as proved:
                ddb.prove(text)
            with pytest.raises(EvaluationError) as explained:
                ddb.explain(text)
            assert str(proved.value) == str(explained.value)
        for text in ("parent(ann, Y)", "mother(ann, Y)"):
            with pytest.raises(EvaluationError,
                               match="is not a recursive predicate"):
                ddb.prove(text)
