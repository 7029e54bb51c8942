"""Telemetry must be invisible to evaluation.

Two properties, engine × catalogue class (mirroring the tracing
suite's ``trace=None`` discipline):

* **Disabled is free** — a session without a registry or query log
  takes the pre-telemetry code path: answers and the evaluation's
  counters are bit-identical to an instrumented session's.
* **Reconciliation by construction** — the registry's counters equal
  the sum of the per-query stats deltas, because that is literally
  what is fed to them (snapshot-delta), even when one stats object is
  reused across queries.
"""

import io
import json

import pytest

from repro.engine import Query
from repro.engine.plan import clear_plan_cache
from repro.engine.stats import EvaluationStats
from repro.logutil import QueryLogger
from repro.metrics import MetricsRegistry
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, random_edb

#: one catalogue representative per paper class A1 … F
CLASS_ENTRIES = {
    "A1": "s2a", "A3": "s4", "A4": "s5", "A5": "s1a",
    "B": "s8", "C": "s9", "D": "s10", "E": "s11", "F": "s12",
}

ENGINES = ("compiled", "semi-naive", "naive", "top-down")


def _sessions(name):
    """Two identically-loaded sessions: bare, and fully instrumented."""
    system = CATALOGUE[name].system()
    db = random_edb(system, nodes=5, tuples_per_relation=6, seed=0)
    bare = DeductiveDatabase()
    instrumented = DeductiveDatabase(
        metrics=MetricsRegistry(),
        query_log=QueryLogger(io.StringIO()))
    for session in (bare, instrumented):
        session.add_rule(system.recursive.rule)
        for exit_rule in system.exits:
            session.add_rule(exit_rule)
        for relation in db.relation_names:
            session.add_facts(relation, db.rows(relation))
    query = Query.all_free(system.predicate, system.dimension)
    return bare, instrumented, query


class TestDisabledTelemetryIsFree:
    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_answers_and_stats_bit_identical(self, paper_class,
                                             engine):
        bare, instrumented, query = _sessions(
            CLASS_ENTRIES[paper_class])
        bare_stats, inst_stats = EvaluationStats(), EvaluationStats()
        # The process-wide join-plan cache is shared by both runs;
        # clear it before each so hits/misses compare like-for-like.
        clear_plan_cache()
        plain = bare.query(query, stats=bare_stats, engine=engine)
        clear_plan_cache()
        observed = instrumented.query(query, stats=inst_stats,
                                      engine=engine)
        assert plain == observed
        assert bare_stats.to_dict() == inst_stats.to_dict()

    def test_error_paths_identical_too(self):
        bare, instrumented, _ = _sessions("s2a")
        for session in (bare, instrumented):
            with pytest.raises(Exception) as caught:
                session.query("no_such_predicate(X)")
            assert "no_such_predicate" in str(caught.value)


class TestRegistryReconciliation:
    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    def test_counters_equal_stats_delta_sums(self, paper_class):
        """Across several queries — including a *reused* stats object,
        the snapshot-delta's reason to exist — the registry's rounds/
        probes/derived counters equal the per-query sums."""
        _, session, query = _sessions(CLASS_ENTRIES[paper_class])
        reused = EvaluationStats()
        totals = {"rounds": 0, "probes": 0, "derived": 0}
        for _ in range(3):
            before = reused.to_dict()
            session.query(query, stats=reused, engine="semi-naive")
            after = reused.to_dict()
            for field in totals:
                totals[field] += after[field] - before[field]
        registry = session.metrics
        for field, metric in (("rounds", "repro_rounds_total"),
                              ("probes", "repro_probes_total"),
                              ("derived", "repro_derived_total")):
            counter = registry.get(metric)
            assert counter.value(engine="semi-naive") == totals[field]
        queries = registry.get("repro_queries_total")
        assert queries.value(engine="semi-naive",
                             formula_class=paper_class,
                             outcome="ok") == 3

    def test_error_counter_and_log_line(self):
        _, session, _ = _sessions("s2a")
        with pytest.raises(Exception):
            session.query("missing(X, Y)")
        errors = session.metrics.get("repro_query_errors_total")
        assert errors is not None
        total = sum(errors.value(**dict(zip(errors.label_names, key)))
                    for key in errors._series)
        assert total == 1
        log_text = session.query_log.stream.getvalue()
        assert '"outcome": "ok"' not in log_text
        assert log_text.count("\n") == 1
        # the log line names the labels of the series it incremented
        queries = session.metrics.get("repro_queries_total")
        (key,) = queries._series
        labels = dict(zip(queries.label_names, key))
        line = json.loads(log_text)
        assert line["outcome"] == labels["outcome"] == "error"
        assert (line["formula_class"] == labels["formula_class"]
                == "unknown")
        assert line["error"].startswith(
            "EvaluationError: unknown predicate 'missing'")
