"""Unit tests for the execution-tracing layer (EXPLAIN ANALYZE)."""

import json

import pytest

from repro.datalog.parser import parse_system
from repro.engine import MaterializedRecursion, TopDownEngine
from repro.engine.stats import EvaluationStats
from repro.engine.trace import (TRACE_SCHEMA_VERSION, Tracer,
                                validate_trace_dict)
from repro.ra import Database
from repro.session import DeductiveDatabase
from repro.workloads import chain

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


class TestEngineTraces:
    @pytest.mark.parametrize("engine", ["compiled", "semi-naive",
                                        "naive", "top-down"])
    def test_every_engine_emits_a_valid_trace(self, ddb, engine):
        tracer = Tracer()
        answers = ddb.query("anc(X, Y)", engine=engine, trace=tracer)
        assert tracer.trace is not None
        validate_trace_dict(tracer.trace.to_dict())
        assert tracer.trace.engine == ddb.ENGINES[engine].name
        assert tracer.trace.answers == len(answers) == 6

    def test_trace_does_not_change_answers(self, ddb):
        plain = ddb.query("anc(X, Y)", engine="semi-naive")
        traced = ddb.query("anc(X, Y)", engine="semi-naive",
                           trace=Tracer())
        assert plain == traced

    def test_topdown_trace_has_subgoals(self, ddb):
        tracer = Tracer()
        ddb.query("anc(ann, Y)", engine="top-down", trace=tracer)
        kinds = {span.kind for span in tracer.trace.rounds}
        assert kinds == {"subgoal"}
        assert any("anc" in span.detail.get("subgoal", "")
                   for span in tracer.trace.rounds)

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
    def test_bound_query_traces_root_growth(self, tc_system,
                                            tc_chain_db):
        from repro.engine.query import Query
        tracer = Tracer()
        answers = TopDownEngine().evaluate(
            tc_system, tc_chain_db, Query.parse("P(n0, Y)"),
            trace=tracer)
        assert tracer.trace.delta_total == len(answers)


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
