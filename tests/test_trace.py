"""Unit tests for the execution-tracing layer (EXPLAIN ANALYZE)."""

import json

import pytest

from repro.datalog.parser import parse_system
from repro.engine import (ENGINES, MaterializedRecursion, SemiNaiveEngine,
                          TopDownEngine, vector)
from repro.engine.stats import EvaluationStats
from repro.engine.trace import (TRACE_SCHEMA_VERSION, Tracer,
                                validate_trace_dict)
from repro.ra import Database
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, chain, random_edb

GENEALOGY = """
    anc(x, y) :- parent(x, z), anc(z, y).
    anc(x, y) :- parent(x, y).
    parent(ann, bea).  parent(bea, cal).  parent(cal, dee).
"""


@pytest.fixture
def ddb():
    session = DeductiveDatabase()
    session.load(GENEALOGY)
    return session


class TestTracerLifecycle:
    def test_round_counters_are_stat_deltas(self):
        stats = EvaluationStats()
        tracer = Tracer()
        tracer.begin("test", predicate="P", query="P(_)", note="hello")
        stats.probes, stats.hash_builds, stats.hash_lookups = 5, 1, 1
        tracer.begin_round("delta", 3, stats)
        stats.probes += 7
        stats.derived += 4
        stats.hash_builds += 1
        stats.hash_lookups += 3
        tracer.end_round(2, stats, depth=1)
        trace = tracer.finish(2, stats)
        assert trace.engine == "test"
        assert trace.meta == {"note": "hello"}
        (span,) = trace.rounds
        assert span.kind == "delta"
        assert span.delta_in == 3 and span.delta_out == 2
        assert span.probes == 7 and span.derived == 4
        assert span.hash_builds == 1
        assert span.hash_reuses == 2   # 3 lookups - 1 build
        assert span.fan_out == pytest.approx(4 / 3)
        assert span.detail == {"depth": 1}
        assert trace.delta_total == 2

    def test_finish_closes_unterminated_round(self):
        tracer = Tracer()
        tracer.begin("test")
        tracer.begin_round("delta", 1)
        trace = tracer.finish(0)
        assert len(trace.rounds) == 1
        assert trace.rounds[0].delta_out == 0

    def test_rule_subspans(self):
        stats = EvaluationStats()
        tracer = Tracer()
        tracer.begin("test")
        tracer.begin_round("exit", 0, stats)
        tracer.begin_rule("exit[0]: r", stats)
        stats.probes += 2
        stats.derived += 2
        tracer.end_rule(stats)
        tracer.end_round(2, stats)
        trace = tracer.finish(2, stats)
        (rule,) = trace.rounds[0].rules
        assert rule.label == "exit[0]: r"
        assert rule.probes == 2 and rule.derived == 2

    def test_begin_resets_for_reuse(self):
        tracer = Tracer()
        tracer.begin("one")
        tracer.begin_round("delta", 1)
        tracer.end_round(1)
        tracer.finish(1)
        tracer.begin("two")
        trace = tracer.finish(0)
        assert trace.engine == "two"
        assert trace.rounds == []


class TestSchema:
    def test_round_trips_through_json(self, ddb):
        tracer = Tracer()
        ddb.query("anc(X, Y)", engine="semi-naive", trace=tracer)
        document = json.loads(tracer.trace.to_json())
        validate_trace_dict(document)
        assert document["version"] == TRACE_SCHEMA_VERSION

    def test_wrong_version_rejected(self, ddb):
        tracer = Tracer()
        ddb.query("anc(X, Y)", engine="semi-naive", trace=tracer)
        document = tracer.trace.to_dict()
        document["version"] = 99
        with pytest.raises(ValueError, match="version"):
            validate_trace_dict(document)

    def test_missing_and_unknown_fields_rejected(self, ddb):
        tracer = Tracer()
        ddb.query("anc(X, Y)", engine="semi-naive", trace=tracer)
        document = tracer.trace.to_dict()
        document.pop("answers")
        with pytest.raises(ValueError, match="missing"):
            validate_trace_dict(document)
        document = tracer.trace.to_dict()
        document["surprise"] = 1
        with pytest.raises(ValueError, match="unknown"):
            validate_trace_dict(document)

    @pytest.mark.parametrize("where, name", [
        ("trace", "workers"), ("trace", "events"),
        ("round", "shard_sizes"), ("round", "shard_wall_s"),
        ("round", "events")])
    def test_removed_worker_pool_fields_rejected(self, ddb, where,
                                                 name):
        tracer = Tracer()
        ddb.query("anc(X, Y)", engine="semi-naive", trace=tracer)
        document = tracer.trace.to_dict()
        target = document if where == "trace" else document["rounds"][0]
        target[name] = []
        with pytest.raises(ValueError, match=f"unknown fields.*{name}"):
            validate_trace_dict(document)


class TestRender:
    def test_render_mentions_engine_rounds_and_rules(self, ddb):
        text = ddb.explain_analyze("anc(ann, Y)", engine="semi-naive")
        assert "engine=semi-naive" in text
        assert "exit[0]" in text
        assert "delta[1]" in text
        assert "fan-out=" in text
        assert "hash=" in text

    def test_compiled_header_has_plan_and_observations(self, ddb):
        text = ddb.explain_analyze("anc(ann, Y)")
        assert "strategy:" in text        # the compiled formula...
        assert "engine=compiled" in text  # ...then the observed trace
        assert "answers=3" in text

    def test_all_free_stable_query_names_what_ran(self, ddb):
        """A stable plan with no bound position has no selection to
        push down: it runs the unrestricted fixpoint, and the trace
        says so while the compiled header keeps the plan."""
        tracer = Tracer()
        ddb.query("anc(X, Y)", trace=tracer)
        assert tracer.trace.meta["strategy"] == "iterative"
        (magic,) = [span for span in tracer.trace.rounds
                    if span.kind == "magic"]
        assert magic.detail["unrestricted"] is True
        text = ddb.explain_analyze("anc(X, Y)")
        assert "strategy:   stable" in text    # the compiled plan
        assert "strategy: iterative" in text   # what actually ran
        bound = Tracer()
        ddb.query("anc(ann, Y)", trace=bound)
        assert bound.trace.meta["strategy"] == "stable"


    def test_class_c_shows_the_auxiliary_recursion(self):
        """Example 9's plan: the header's note names R's rules, and the
        trace shows σE and the product, whose line says whether the
        query built R or reused it."""
        ddb = DeductiveDatabase()
        ddb.load("""
            P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).
            P(x, y, z) :- E(x, y, z).
            A(a, b). A(b, c). B(a, b). B(b, c). E(b, e, c).
        """)
        text = ddb.explain_analyze("P(a, Y, Z)")
        assert ("note:       answers σE ∪ σ(A(x, y)) × P__aux(z), where "
                "P__aux(z) :- B(u, v) ∧ E(u, z, v). ") in text
        assert "product[1] in=1 out=1" in text  # R = {e}
        assert "· auxiliary_status=built" in text
        assert "P__aux(z) :- B(u, v) ∧ E(u, z, v).:" not in text
        assert "answers=1" in text  # (a, b, e): σA(a, b) × R = {e}
        assert "· auxiliary_status=reused" in ddb.explain_analyze(
            "P(b, Y, Z)")


    def test_compressed_chain_shows_the_composed_step(self):
        """The first delta round names the compressed edge with the
        paper's label, the rows it composed from its input rows, and
        whether this evaluation built it or reused it.  Its table
        builds include C's on the call anchor, which counts the exits
        the chain extends."""
        ddb = DeductiveDatabase()
        ddb.load("""
            P(x, y) :- A(x, m), B(m, n), C(n, z), P(z, y).
            P(x, y) :- E(x, y).
            A(a, m). B(m, n). C(n, b). A(b, m2). B(m2, n2). C(n2, c).
            E(c, c).
        """)
        first = ddb.explain_analyze("P(X, Y)")
        assert ("delta[2] in=1 out=1 fan-out=1.00 probes=1 hash=6b/0r"
                in first)
        assert "    · x —[ABC]— z: built rows=2 inputs=6\n" in first
        again = ddb.explain_analyze("P(X, Y)", engine="semi-naive")
        assert "    · x —[ABC]— z: reused rows=2 inputs=6\n" in again
        assert "answers=3" in first and "answers=3" in again


    def test_bounded_expansions_show_their_components(self):
        """Each expansion round of s8 says how many components its plan
        ran and, at depth 3, whether the existence check held: its
        ``C-{B, C}-E`` group binds no answer column.  Without the C row
        it walks through, the check fails and depth 3 derives
        nothing."""
        program = """
            P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).
            P(x, y, z, u) :- E(x, y, z, u).
            A(a, b). A(c, d). A(k, d). B(d, f). C(g, h). C(g, f).
            E(c, d, g, h). E(g, d, g, h).
        """
        ddb = DeductiveDatabase()
        ddb.load(program)
        text = ddb.explain_analyze("P(a, Y, Z, U)")
        assert ("plan:       σE,  (σA) X ({B, C}-E),  "
                "∃(C-{B, C}-E)-(σA) X (B-A)") in text
        lines = text.splitlines()
        details = [lines[i + 1] for i, line in enumerate(lines)
                   if line.startswith("  expansion[")]
        assert details == ["    · components=1", "    · components=2",
                           "    · components=3 exists=held"]
        assert "answers=3" in text  # (a, b, k, f) from depth 3 alone
        ddb = DeductiveDatabase()
        ddb.load(program.replace("C(g, f).", ""))
        text = ddb.explain_analyze("P(a, Y, Z, U)")
        assert ("  expansion[2] out=0 " in text
                and "    · components=3 exists=failed" in text)
        assert "answers=2" in text


class TestVectorReason:
    """The first delta round of a loop that ran in python names the
    first condition that kept the numpy kernel off, as one line."""

    TC = """
        P(x, y) :- A(x, z), P(z, y).
        P(x, y) :- E(x, y).
        A(a, b). A(b, c). E(c, c).
    """

    @staticmethod
    def _reasons(text: str) -> list[str]:
        return [line.strip() for line in text.splitlines()
                if line.strip().startswith("· vector=")]

    def test_a_bound_top_down_loop_is_filtered(self):
        ddb = DeductiveDatabase()
        ddb.load(self.TC)
        text = ddb.explain_analyze("P(a, Y)", engine="top-down")
        assert self._reasons(text) == ["· vector=filtered"]
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("  delta[2] "))
        assert lines[first + 1] == "    · vector=filtered"

    def test_s11_runs_several_steps(self):
        system = CATALOGUE["s11"].system()
        db = random_edb(system, nodes=5, tuples_per_relation=8, seed=4)
        tracer = Tracer()
        SemiNaiveEngine().evaluate(system, db, trace=tracer)
        assert self._reasons(tracer.trace.render()) == ["· vector=steps"]
        assert tracer.trace.meta["backend"] == "python"

    def test_a_three_column_entry_says_layout(self):
        """The kernel packs an entry of two distinct variables; a call
        that carries a third column runs in python and says so."""
        system = parse_system("P(x, y, w) :- A(x, z), P(z, y, w).")
        db = Database.from_dict({"A": [("a", "b"), ("b", "c")],
                                 "P__exit": [("c", "c", "d")]})
        tracer = Tracer()
        SemiNaiveEngine().evaluate(system, db, trace=tracer)
        assert self._reasons(tracer.trace.render()) == ["· vector=layout"]
        assert tracer.trace.meta["backend"] == "python"

    def test_a_pinned_loop_says_python(self, tc_system, tc_chain_db):
        tracer = Tracer()
        SemiNaiveEngine(backend="python").evaluate(tc_system, tc_chain_db,
                                                   trace=tracer)
        assert self._reasons(tracer.trace.render()) == ["· vector=python"]

    def test_a_certified_loop_without_numpy_says_so(self, tc_system,
                                                    tc_chain_db):
        """On the numpy-less leg TC's certified loop names the missing
        kernel; with numpy it runs there and records no reason."""
        tracer = Tracer()
        SemiNaiveEngine().evaluate(tc_system, tc_chain_db, trace=tracer)
        assert self._reasons(tracer.trace.render()) == (
            [] if vector.HAVE_NUMPY else ["· vector=no numpy"])
        assert tracer.trace.meta["backend"] == (
            "numpy" if vector.HAVE_NUMPY else "python")


class TestEngineTraces:
    @pytest.mark.parametrize("engine", ["compiled", "semi-naive",
                                        "naive", "top-down"])
    def test_every_engine_emits_a_valid_trace(self, ddb, engine):
        tracer = Tracer()
        answers = ddb.query("anc(X, Y)", engine=engine, trace=tracer)
        assert tracer.trace is not None
        validate_trace_dict(tracer.trace.to_dict())
        assert tracer.trace.engine == ENGINES[engine].name
        assert tracer.trace.answers == len(answers) == 6

    def test_trace_does_not_change_answers(self, ddb):
        plain = ddb.query("anc(X, Y)", engine="semi-naive")
        traced = ddb.query("anc(X, Y)", engine="semi-naive",
                           trace=Tracer())
        assert plain == traced

    def test_topdown_trace_has_magic_exit_and_delta_rounds(self, ddb):
        tracer = Tracer()
        ddb.query("anc(ann, Y)", engine="top-down", trace=tracer)
        kinds = [span.kind for span in tracer.trace.rounds]
        assert kinds[:2] == ["magic", "exit"]
        assert set(kinds[2:]) == {"delta"}
        magic = tracer.trace.rounds[0].detail
        assert magic["unrestricted"] is False and magic["bindings"] > 1
        # a bound query's delta loop is filtered by its bindings
        assert tracer.trace.rounds[2].detail["vector"] == "filtered"

    def test_incremental_trace(self):
        system = parse_system("P(x, y) :- A(x, z), P(z, y).")
        db = Database.from_dict({"A": chain(3),
                                 "P__exit": [("n3", "n3")]})
        view = MaterializedRecursion(system, db)
        tracer = Tracer()
        added = view.insert("A", ("n4", "n0"), trace=tracer)
        validate_trace_dict(tracer.trace.to_dict())
        assert tracer.trace.engine == "incremental"
        assert tracer.trace.rounds[0].kind == "seed"
        assert tracer.trace.delta_total == len(added) > 0

    def test_incremental_duplicate_insert_traces_zero(self):
        system = parse_system("P(x, y) :- A(x, z), P(z, y).")
        db = Database.from_dict({"A": chain(3),
                                 "P__exit": [("n3", "n3")]})
        view = MaterializedRecursion(system, db)
        tracer = Tracer()
        assert view.insert("A", ("n1", "n2"), trace=tracer) == frozenset()
        assert tracer.trace.answers == 0


class TestTopDownEngineDirect:
    def test_bound_query_traces_the_filtered_fixpoint(self, tc_system,
                                                      tc_chain_db):
        """The rounds add up to the rows of the fixpoint the bindings
        admit, as the stats' ``delta_sizes`` do, not to the answers."""
        from repro.engine.query import Query
        tracer, stats = Tracer(), EvaluationStats()
        answers = TopDownEngine().evaluate(
            tc_system, tc_chain_db, Query.parse("P(n0, Y)"), stats,
            trace=tracer)
        assert tracer.trace.delta_total == sum(stats.delta_sizes)
        assert len(answers) <= tracer.trace.delta_total


class TestPassiveTracer:
    """``Tracer(passive=True)`` observes the production path without
    steering it: the answer cache and the unseen-constant shortcut
    stay enabled and get recorded instead of bypassed."""

    def test_active_tracer_bypasses_answer_cache(self, ddb):
        ddb.query("anc(ann, Y)")  # populate the cache
        tracer = Tracer()
        ddb.query("anc(ann, Y)", trace=tracer)
        assert not tracer.trace.meta.get("cache_hit")
        assert all(span.kind != "cache"
                   for span in tracer.trace.rounds)

    def test_passive_tracer_records_the_cache_hit(self, ddb):
        first = ddb.query("anc(ann, Y)")
        tracer = Tracer(passive=True)
        again = ddb.query("anc(ann, Y)", trace=tracer)
        assert again == first
        assert tracer.trace.meta == {"cache_hit": True}
        (span,) = tracer.trace.rounds
        assert span.kind == "cache"
        assert tracer.trace.answers == 3
        validate_trace_dict(tracer.trace.to_dict())

    def test_passive_tracer_records_unseen_constant(self):
        session = DeductiveDatabase()
        session.load(GENEALOGY)
        tracer = Tracer(passive=True)
        answers = session.query("anc(zoe, Y)", trace=tracer)
        assert answers == frozenset()
        assert tracer.trace.meta == {"unseen_constant": True}
        assert tracer.trace.rounds == []
        validate_trace_dict(tracer.trace.to_dict())

    def test_query_id_threads_into_the_log(self):
        import io

        from repro.logutil import QueryLogger
        session = DeductiveDatabase(
            query_log=QueryLogger(io.StringIO()))
        session.load(GENEALOGY)
        session.query("anc(ann, Y)", query_id="given-1")
        session.query("anc(bea, Y)")
        lines = [json.loads(line) for line in
                 session.query_log.stream.getvalue().splitlines()]
        assert lines[0]["query_id"] == "given-1"
        assert lines[1]["query_id"]  # auto-generated, non-empty
        assert lines[1]["query_id"] != "given-1"
