"""Tests for the DeductiveDatabase session facade."""

import pickle
import threading

import pytest

from repro.datalog.errors import (DatalogSyntaxError, EvaluationError,
                                  RuleValidationError)
from repro.engine import (ENGINES, Deadline, EvaluationStats, Query,
                          QueryCancelled, QueryTimeout, SemiNaiveEngine,
                          Tracer)
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, random_edb

from .test_vector_properties import _count_builds
from .threads import race

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

    def test_rule_over_an_emptied_relation_refused(self, ddb):
        """A stored relation whose facts were all removed is still
        stored, and would shadow the derived relation of its name."""
        ddb.remove_fact("female", "ann")
        ddb.remove_fact("female", "cal")
        self._refused(ddb, lambda s: s.add_rule("female(x) :- parent(x, y)."),
                      "holds stored facts")

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

    def test_mutual_recursion_fails_only_the_queries_that_reach_it(
            self, ddb):
        """Regression: a q/r cycle beside anc failed every query of
        anc, because the whole program was ordered before what lies
        below the queried predicate was picked."""
        ddb.load("""
            q(x) :- r(x).
            r(x) :- q(x).
            kin(x, y) :- anc(x, y).
            line(x, y) :- kin(x, z), line(z, y).
            line(x, y) :- kin(x, y).
        """)
        assert ddb.query("anc(ann, Y)") == ANC_OF_ANN
        assert ddb.query("line(ann, Y)") == ANC_OF_ANN
        for text in ("q(X)", "r(X)"):
            with pytest.raises(RuleValidationError, match="mutually"):
                ddb.query(text)
        with pytest.raises(RuleValidationError, match="mutually"):
            ddb.materialise()

    @pytest.mark.parametrize("rules, match", [
        ("q(x) :- r(x).  r(x) :- q(x).", "mutually"),
        ("p(x, y) :- parent(x, z), p(z, y).", "no exit rule"),
    ], ids=["cycle", "no-exit"])
    def test_a_view_query_orders_only_what_it_reads(self, ddb, rules,
                                                    match):
        """Regression: a view query evaluated the whole program, so a
        broken predicate it does not read failed it."""
        ddb.load(rules + "  kin(x, y) :- anc(x, y).")
        assert ddb.query("kin(ann, Y)") == ANC_OF_ANN
        with pytest.raises(RuleValidationError, match=match):
            ddb.materialise()


ANC_OF_ANN = {("ann", "bea"), ("ann", "cal"), ("ann", "dee")}


class TestRuleErrors:
    """A broken recursive predicate fails every query, explain and
    advise that touches it, every time, and no query of another
    predicate; a rule that mends it takes effect at once."""

    @pytest.mark.parametrize("rules, match", [
        (["p(x, y) :- parent(x, z), p(z, y).",
          "p(x, y) :- parent(z, x), p(z, y).",
          "p(x, y) :- parent(x, y)."], "'p' has 2 recursive rules"),
        (["p(x, y) :- parent(x, z), p(z, y)."], "'p' has no exit rule"),
    ])
    def test_error_surfaces_wherever_p_is_read(self, ddb, rules, match):
        for rule in rules:
            ddb.add_rule(rule)
        for _ in range(2):
            for read in (lambda: ddb.query("p(ann, Y)"),
                         lambda: ddb.explain("p(ann, Y)"),
                         lambda: ddb.advise("p")):
                with pytest.raises(RuleValidationError, match=match):
                    read()
            assert ddb.query("anc(ann, Y)") == ANC_OF_ANN

    def test_an_exit_rule_mends_p_but_not_an_older_fork(self, ddb):
        ddb.add_rule("p(x, y) :- parent(x, z), p(z, y).")
        with pytest.raises(RuleValidationError, match="no exit"):
            ddb.query("p(ann, Y)")
        fork = ddb.fork_reader()
        ddb.add_rule("p(x, y) :- parent(x, y).")
        assert ddb.query("p(ann, Y)") == ANC_OF_ANN
        with pytest.raises(RuleValidationError, match="no exit"):
            fork.query("p(ann, Y)")


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


def catalogue_session(name: str) -> tuple[DeductiveDatabase, str]:
    """A session over a catalogue formula's rules and a random EDB,
    with one warm query of the formula's first bound form."""
    system = CATALOGUE[name].system()
    db = random_edb(system, nodes=6, tuples_per_relation=8, seed=1)
    session = DeductiveDatabase()
    session.write_batch(
        add={rel: db.rows(rel) for rel in db.relation_names},
        rules=[system.recursive.rule, *system.exits])
    session.query(Query(system.predicate, ("c0",) + (None,) *
                        (system.dimension - 1)))
    return session, system.predicate


class TestRulesDecideOnce:
    """What the rules alone decide is derived once per rules version:
    an uncached query of a compiled form rebuilds and recompiles
    nothing."""

    @pytest.mark.parametrize("name", ["s8", "s1a", "s4", "s9"])
    def test_an_uncached_query_derives_nothing(self, monkeypatch, name):
        import repro.core.compile as compile_module
        import repro.session as session_module
        from repro.datalog.program import Program, RecursionSystem
        from repro.datalog.rules import RecursiveRule
        session, predicate = catalogue_session(name)
        calls = []

        def counting(label, real):
            def spy(*args, **kwargs):
                calls.append(label)
                return real(*args, **kwargs)
            return spy

        for owner, attr in [(Program, "__post_init__"),
                            (RecursiveRule, "__init__"),
                            (RecursionSystem, "__init__"),
                            (session_module, "classify"),
                            (compile_module, "classify"),
                            (compile_module, "to_stable"),
                            (compile_module, "compile_stable"),
                            (compile_module, "to_nonrecursive")]:
            monkeypatch.setattr(owner, attr,
                                counting(attr, getattr(owner, attr)))
        stats = EvaluationStats()
        session.query(Query(predicate, ("c1",) + (None,) *
                            (session.system_for(predicate).dimension - 1)),
                      stats=stats)
        assert stats.answer_cache_hits == 0
        assert calls == []

    def test_advise_unfolds_s7_once_for_every_form(self, monkeypatch):
        import repro.core.compile as compile_module
        session, predicate = catalogue_session("s7")
        calls = []
        for attr in ("to_stable", "compile_stable"):
            real = getattr(compile_module, attr)
            monkeypatch.setattr(
                compile_module, attr,
                lambda *args, attr=attr, real=real: (
                    calls.append(attr), real(*args))[1])
        table = session.advise(predicate)
        assert len(table.splitlines()) == 2 + 2 ** 7
        # the warm query compiled what every form shares
        assert calls == []
        fresh = DeductiveDatabase()
        fresh.write_batch(rules=session.program.rules)
        assert fresh.advise(predicate) == table
        assert calls == ["to_stable", "compile_stable"]

    def test_readers_of_a_fork_fill_its_rule_set_at_once(self):
        """The readers of a fork derive its shared entries
        concurrently; a racing derivation stores an interchangeable
        value, so every answer is right and every form is compiled."""
        text = GENEALOGY + """
            kin(x, y) :- anc(x, y).
            line(x, y) :- kin(x, z), line(z, y).
            line(x, y) :- kin(x, y).
        """
        queries = ["anc(ann, Y)", "anc(X, dee)", "anc(X, Y)",
                   "line(ann, Y)", "line(X, cal)", "matriline(ann, Y)",
                   "mother(X, Y)"]
        reference = DeductiveDatabase()
        reference.load(text)
        expected = {text: reference.query(text, engine="semi-naive")
                    for text in queries}
        session = DeductiveDatabase()
        session.load(text)
        reader = session.fork_reader()

        def ask(offset: int) -> None:
            for step in range(3 * len(queries)):
                text = queries[(offset + step) % len(queries)]
                # an active tracer skips the answer cache
                assert reader.query(text, trace=Tracer()) == expected[text]

        assert race(ask) == []
        assert sorted((p, sorted(a)) for p, a in
                      reader._rules_now().formulas) == [
            ("anc", []), ("anc", [0]), ("anc", [1]), ("line", [0]),
            ("line", [1]), ("matriline", [0])]


class TestPlanCache:
    def test_same_adornment_reuses_plan(self, ddb):
        ddb.query("anc(ann, Y)")
        first = ddb._rules_now().formulas[("anc", frozenset({0}))]
        ddb.query("anc(bea, Y)")   # same form, different constant
        assert ddb._rules_now().formulas[("anc", frozenset({0}))] is first

    def test_new_rule_invalidates(self, ddb):
        ddb.query("anc(ann, Y)")
        assert ddb._rules_now().formulas
        ddb.add_rule("other(x, y) :- parent(x, y).")
        assert not ddb._rules_now().formulas

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
        """EXPLAIN prints the compiled formula the query runs."""
        text = ddb.explain("anc(ann, Y)")
        (compiled,) = ddb._rules_now().formulas.values()
        assert text == compiled.describe()
        ddb.query("anc(bea, Y)")
        (cached,) = ddb._rules_now().formulas.values()
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

        def ask(n: int) -> None:
            for step in range(5 * len(keys)):
                text, engine = key = keys[(n * 3 + step) % len(keys)]
                assert reader.query(text, engine=engine) == expected[key], key

        assert race(ask) == []
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


#: a recursion ``top`` over a recursion ``reach``, and a view ``near``
#: over ``reach``, on a 30-edge chain
CHAIN_BELOW = """
    reach(x, y) :- e(x, z), reach(z, y).
    reach(x, y) :- e(x, y).
    top(x, y) :- e(x, z), top(z, y).
    top(x, y) :- reach(x, y).
    near(x, y) :- reach(x, y).
"""

FROM_N0 = {("n0", f"n{i}") for i in range(1, 31)}


def _chain_session() -> DeductiveDatabase:
    session = DeductiveDatabase()
    session.load(CHAIN_BELOW)
    session.add_facts("e", [(f"n{i}", f"n{i + 1}") for i in range(30)])
    return session


def _cancelled() -> threading.Event:
    flag = threading.Event()
    flag.set()
    return flag


class TestBudgetsBelowTheQuery:
    """What a query derives below it runs under the query's clock and
    cancel flag, checked once per round.  Regression: views and
    recursions below the queried predicate were evaluated with fresh
    stats, so a view query, or a recursion over a recursion, outran
    both a timeout and a cancel."""

    @pytest.mark.parametrize("text", ["near(n0, Y)", "top(n0, Y)"])
    @pytest.mark.parametrize("deadline, error", [
        (lambda: Deadline(timeout_s=0), QueryTimeout),
        (lambda: Deadline(cancel=_cancelled()), QueryCancelled),
    ], ids=["timeout", "cancel"])
    def test_a_spent_budget_stops_the_build(self, text, deadline, error):
        session = _chain_session()
        stats = EvaluationStats(deadline=deadline())
        with pytest.raises(error):
            session.query(text, stats=stats)
        assert stats.rounds == 0  # reach's build raised before any round
        # the build that raised cached nothing
        assert session.query(text) == FROM_N0

    def test_the_row_budget_bounds_answers_not_builds(self):
        session = _chain_session()
        stats = EvaluationStats(deadline=Deadline(max_rows=2))
        session.query("top(n0, Y)", stats=stats)
        assert stats.truncated
        # reach was built whole: the view over it answers every row
        assert session.query("near(n0, Y)") == FROM_N0


#: GENEALOGY, with a view over the view ``mother``, a recursion over
#: it, and a view over the recursion ``anc``
DERIVED = GENEALOGY + """
    grandmother(x, y) :- mother(x, z), parent(z, y).
    gline(x, y) :- grandmother(x, z), gline(z, y).
    gline(x, y) :- grandmother(x, y).
    kin(x, y) :- anc(x, y).
    parent(dee, eve).  female(dee).
"""


class TestDerivedRelations:
    """The views and recursions below a query are derived relations of
    the session's fact store: each built once per version of its rules
    and of what it reads, shared with the forks taken after, never
    shown as a stored relation."""

    @staticmethod
    def _session() -> DeductiveDatabase:
        session = DeductiveDatabase()
        session.load(DERIVED)
        return session

    def test_a_warm_bound_query_over_a_view_builds_nothing(self):
        session = self._session()
        session.query("matriline(ann, Y)")
        stats = EvaluationStats()
        answers = session.query("matriline(cal, Y)", stats=stats)
        assert stats.hash_builds == 0
        assert answers == self._session().query("matriline(cal, Y)")

    def test_a_write_rebuilds_what_reads_it_and_nothing_else(
            self, monkeypatch):
        session = self._session()
        builds = _count_builds(monkeypatch)
        assert session.query("gline(X, Y)") == {
            ("ann", "cal"), ("ann", "eve"), ("cal", "eve")}
        assert builds == ["mother", "grandmother"]
        session.add_fact("female", "bea")  # an input of ``mother``
        assert session.query("gline(X, Y)") == {
            ("ann", "cal"), ("ann", "eve"), ("cal", "eve"), ("bea", "dee")}
        assert builds == ["mother", "grandmother"] * 2
        session.add_fact("unrelated", "x")
        assert session.query("gline(X, Y)", stats=EvaluationStats()) == {
            ("ann", "cal"), ("ann", "eve"), ("cal", "eve"), ("bea", "dee")}
        assert builds == ["mother", "grandmother"] * 2

    def test_a_new_rule_for_a_cached_view_takes_effect(self):
        """At the same fact-store version, a second rule for a view
        that is cached reads the same relations as the first; the
        view's next query sees both rules."""
        session = self._session()
        session.query("kin(ann, Y)")
        version = session._edb.global_version()
        session.add_rule("kin(x, y) :- anc(y, x).")
        assert session._edb.global_version() == version
        fresh = self._session()
        fresh.add_rule("kin(x, y) :- anc(y, x).")
        assert session.query("kin(X, Y)") == fresh.query("kin(X, Y)")
        assert ("cal", "ann") in session.query("kin(cal, Y)")

    def test_no_entry_shows_as_a_relation(self):
        session = self._session()
        edb = session._edb
        shown = (edb.relation_names, edb.total_facts(),
                 edb.global_version(), edb.metrics_snapshot())
        for text in ("gline(ann, Y)", "kin(ann, Y)", "mother(X, Y)"):
            session.query(text)
        assert edb.count("grandmother") > 0  # the join tables see it
        assert (edb.relation_names, edb.total_facts(),
                edb.global_version(), edb.metrics_snapshot()) == shown
        snapshot = pickle.loads(pickle.dumps(edb))
        for name in ("mother", "grandmother", "anc", "kin"):
            assert snapshot.count(name) == 0

    def test_a_stored_relation_shadows_an_entry(self):
        """The naive engine declares the predicate it writes, so an
        ``anc`` cached below ``kin`` leaves its run as it would be in a
        cold session."""
        warm = self._session()
        warm.query("kin(ann, Y)")
        cold = self._session()
        runs = []
        for session in (warm, cold):
            stats = EvaluationStats()
            runs.append((session.query("anc(ann, Y)", engine="naive",
                                       stats=stats),
                         stats.rounds, stats.probes))
        assert runs[0] == runs[1]

    def test_a_fork_shares_what_was_built_before_it(self, monkeypatch):
        session = self._session()
        session.query("kin(ann, Y)")
        fork = session.fork_reader()
        builds = _count_builds(monkeypatch)
        stats = EvaluationStats()
        assert fork.query("kin(bea, Y)", stats=stats) == {
            ("bea", "cal"), ("bea", "dee"), ("bea", "eve")}
        assert builds == [] and stats.hash_builds == 0
        # a build on the fork is the fork's own
        fork.query("gline(ann, Y)")
        assert builds == ["mother", "grandmother"]
        session.query("gline(ann, Y)")
        assert builds == ["mother", "grandmother"] * 2
