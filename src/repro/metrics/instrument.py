"""Standard instrumentation: stats deltas and database state → registry.

This module owns the metric *names* of the session/query layer, so
every exposition surface (``repro serve``'s ``/metrics``, tests, the
CI wire smoke) sees one stable vocabulary:

===================================== ======================== =========
metric                                labels                   kind
===================================== ======================== =========
``repro_queries_total``               engine, formula_class,   counter
                                      outcome
``repro_query_errors_total``          engine, error            counter
``repro_queries_rejected_total``      —                        counter
``repro_queries_timed_out_total``     —                        counter
``repro_queries_cancelled_total``     —                        counter
``repro_query_duration_seconds``      engine, formula_class    histogram
``repro_query_answers``               engine, formula_class    histogram
``repro_rounds_total``                engine                   counter
``repro_probes_total``                engine                   counter
``repro_derived_total``               engine                   counter
``repro_plan_cache_hits_total``       engine                   counter
``repro_plan_cache_misses_total``     engine                   counter
``repro_hash_builds_total``           engine                   counter
``repro_hash_lookups_total``          engine                   counter
``repro_answer_cache_hits_total``     engine                   counter
``repro_vector_batches_total``        backend                  counter
``repro_vector_rows_total``           —                        counter
``repro_answers_lazy_total``          —                        counter
``repro_answers_decoded_total``       —                        counter
``repro_decode_seconds``              —                        histogram
``repro_relation_rows``               relation                 gauge
``repro_relation_version``            relation                 gauge
``repro_plan_cache_size``             —                        gauge
``repro_symbols_total``               —                        gauge
``repro_encoded_bytes_estimate``      —                        gauge
``repro_inflight_queries``            —                        gauge
``repro_admission_queue_depth``       —                        gauge
``repro_epoch``                       —                        gauge
``repro_snapshot_age_seconds``        —                        histogram
``repro_epoch_publish_seconds``       —                        histogram
``repro_jobs_submitted_total``        —                        counter
``repro_jobs_total``                  outcome                  counter
``repro_job_queue_depth``             —                        gauge
``repro_jobs_running``                —                        gauge
``repro_job_queue_wait_seconds``      —                        histogram
``repro_job_run_seconds``             —                        histogram
``repro_traces_captured_total``       reason                   counter
``repro_build_info``                  version, python, vector  gauge
===================================== ======================== =========

The feed is the snapshot-delta discipline of
:func:`repro.engine.stats.delta_between`: the session snapshots the
query's :class:`~repro.engine.stats.EvaluationStats` around the
evaluation and passes the difference here, so for any scripted session
``repro_rounds_total`` equals the sum of the per-query ``rounds``
exactly — the reconciliation the acceptance tests assert.
"""

from __future__ import annotations

from ..engine.stats import ACCUMULATING_FIELDS
from .registry import MetricsRegistry

__all__ = ["observe_query", "observe_query_error", "observe_decode",
           "observe_rejection", "observe_epoch_publish",
           "observe_snapshot_age", "set_admission_gauges",
           "observe_job_submitted", "observe_job_finished",
           "set_job_gauges",
           "export_database_gauges", "export_build_info",
           "LATENCY_BUCKETS", "COUNT_BUCKETS"]

#: Query latency buckets: log scale, 100µs → 100s.
LATENCY_BUCKETS = tuple(round(10.0 ** (e / 2), 10)
                        for e in range(-8, 5))
#: Answer-count buckets: log scale, 1 → 1e6.
COUNT_BUCKETS = tuple(float(10 ** e) for e in range(7))

#: stats-delta field → counter name (all labelled by ``engine``).
_STATS_COUNTERS = {
    "rounds": ("repro_rounds_total",
               "Fixpoint rounds executed."),
    "probes": ("repro_probes_total",
               "Index probes performed by the solvers."),
    "derived": ("repro_derived_total",
                "Tuples derived before deduplication."),
    "plan_cache_hits": ("repro_plan_cache_hits_total",
                        "Join-plan compilations served from cache."),
    "plan_cache_misses": ("repro_plan_cache_misses_total",
                          "Join-plan compilations that missed."),
    "hash_builds": ("repro_hash_builds_total",
                    "Hash tables built by the join kernel."),
    "hash_lookups": ("repro_hash_lookups_total",
                     "Hash-table fetches by the join kernel."),
    "answer_cache_hits": ("repro_answer_cache_hits_total",
                          "Queries served from the session's "
                          "cross-query answer cache."),
}
assert set(_STATS_COUNTERS) <= set(ACCUMULATING_FIELDS)


def observe_query(registry: MetricsRegistry, *, engine: str,
                  formula_class: str, duration_s: float, answers: int,
                  stats_delta: dict | None = None,
                  lazy_answers: int = 0,
                  outcome: str = "ok",
                  query_id: str | None = None) -> None:
    """Record one successful query: rate, latency, size and the
    engine-level work counters from its stats delta.

    *outcome* distinguishes completion modes that all return answers:
    ``"ok"`` for a full fixpoint, ``"truncated"`` when a row-limit
    deadline stopped the fixpoint at a round boundary (the partial
    answers are sound, just incomplete).

    *lazy_answers* is the number of answers that crossed the query
    boundary still dictionary-encoded (a not-yet-decoded
    :class:`~repro.ra.answers.AnswerSet`); together with
    :func:`observe_decode`'s ``repro_answers_decoded_total`` it
    reconciles how much decode work the lazy columnar path deferred
    and how much was eventually forced.

    *query_id*, when given, rides along as an exemplar on the
    duration histogram — the trace↔metric link: a scrape with
    ``--exemplars`` shows which recorded trace produced the latest
    observation in each latency bucket.
    """
    registry.counter(
        "repro_queries_total", "Queries answered, by outcome.",
        ("engine", "formula_class", "outcome"),
    ).inc(engine=engine, formula_class=formula_class, outcome=outcome)
    registry.histogram(
        "repro_query_duration_seconds", "Wall-clock query latency.",
        ("engine", "formula_class"), buckets=LATENCY_BUCKETS,
    ).observe(duration_s,
              exemplar=({"query_id": query_id} if query_id else None),
              engine=engine, formula_class=formula_class)
    registry.histogram(
        "repro_query_answers", "Answers per query.",
        ("engine", "formula_class"), buckets=COUNT_BUCKETS,
    ).observe(answers, engine=engine, formula_class=formula_class)
    if lazy_answers:
        registry.counter(
            "repro_answers_lazy_total",
            "Answers returned still encoded (decode deferred).",
        ).inc(lazy_answers)
    if stats_delta is None:
        return
    for field, (name, help_text) in _STATS_COUNTERS.items():
        amount = stats_delta.get(field, 0)
        registry.counter(name, help_text, ("engine",)).inc(
            amount, engine=engine)
    batches = stats_delta.get("vector_batches", 0)
    if batches:
        registry.counter(
            "repro_vector_batches_total",
            "Delta rounds executed by the vectorised batch-join "
            "kernel, by backend.",
            ("backend",),
        ).inc(batches,
              backend=stats_delta.get("backend") or "unknown")
        registry.counter(
            "repro_vector_rows_total",
            "Rows emitted by vectorised batch probes (before "
            "dedup against the running total).",
        ).inc(stats_delta.get("vector_rows", 0))


def observe_decode(registry: MetricsRegistry, seconds: float,
                   answers: int) -> None:
    """Record one forced materialisation of a lazy answer set.

    Called where decode actually happens (e.g. the server rendering a
    response body), *not* on the query path — a cache hit that reuses
    an already-decoded :class:`~repro.ra.answers.AnswerSet` records
    nothing, so ``repro_answers_decoded_total`` counts distinct decode
    work, never repeats.
    """
    registry.histogram(
        "repro_decode_seconds",
        "Wall-clock time of one answer-set decode.",
        buckets=LATENCY_BUCKETS,
    ).observe(seconds)
    registry.counter(
        "repro_answers_decoded_total",
        "Answers materialised to value tuples on demand.",
    ).inc(answers)


def observe_query_error(registry: MetricsRegistry, *, engine: str,
                        formula_class: str, error: str,
                        outcome: str = "error") -> None:
    """Record one failed query under both the rate and error names.

    *outcome* ``"timeout"`` marks a wall-clock deadline expiry and
    ``"cancelled"`` a cooperative cancellation (a deleted job, a
    draining server): each gets its own outcome label and dedicated
    counter instead of ``repro_query_errors_total``, which stays a
    count of *genuine* evaluation failures.
    """
    registry.counter(
        "repro_queries_total", "Queries answered, by outcome.",
        ("engine", "formula_class", "outcome"),
    ).inc(engine=engine, formula_class=formula_class, outcome=outcome)
    if outcome == "timeout":
        registry.counter(
            "repro_queries_timed_out_total",
            "Queries aborted by their wall-clock deadline.",
        ).inc()
        return
    if outcome == "cancelled":
        registry.counter(
            "repro_queries_cancelled_total",
            "Queries aborted by a cooperative cancel flag.",
        ).inc()
        return
    registry.counter(
        "repro_query_errors_total", "Query failures by exception type.",
        ("engine", "error"),
    ).inc(engine=engine, error=error)


def observe_rejection(registry: MetricsRegistry) -> None:
    """Record one query turned away at admission (HTTP 429)."""
    registry.counter(
        "repro_queries_rejected_total",
        "Queries rejected by admission control (429).",
    ).inc()


def observe_job_submitted(registry: MetricsRegistry) -> None:
    """Record one background job accepted into the queue.

    Together with ``repro_jobs_total`` this reconciles exactly:
    ``submitted == sum(outcomes) + queued + running`` at any quiesced
    instant (the wire smoke's jobs scenario asserts it).
    """
    registry.counter(
        "repro_jobs_submitted_total",
        "Background jobs accepted into the queue.",
    ).inc()


def observe_job_finished(registry: MetricsRegistry, *, outcome: str,
                         queue_wait_s: float,
                         run_s: float | None) -> None:
    """Record one job reaching a terminal state.

    *run_s* is ``None`` for jobs that never ran (cancelled while
    queued) — they count in the outcome counter and the queue-wait
    histogram but not in the run-duration one.
    """
    registry.counter(
        "repro_jobs_total", "Background jobs finished, by outcome.",
        ("outcome",),
    ).inc(outcome=outcome)
    registry.histogram(
        "repro_job_queue_wait_seconds",
        "Time from job submission to its run starting (or to "
        "cancellation while still queued).",
        buckets=LATENCY_BUCKETS,
    ).observe(queue_wait_s)
    if run_s is not None:
        registry.histogram(
            "repro_job_run_seconds",
            "Wall-clock run time of one background job (admission "
            "wait included).",
            buckets=LATENCY_BUCKETS,
        ).observe(run_s)


def set_job_gauges(registry: MetricsRegistry, *, queue_depth: int,
                   running: int) -> None:
    """Set the point-in-time job-queue gauges."""
    registry.gauge(
        "repro_job_queue_depth",
        "Background jobs waiting for a worker.",
    ).set(queue_depth)
    registry.gauge(
        "repro_jobs_running",
        "Background jobs currently evaluating.",
    ).set(running)


def observe_epoch_publish(registry: MetricsRegistry, *, epoch: int,
                          seconds: float) -> None:
    """Record one write batch becoming a published snapshot."""
    registry.gauge(
        "repro_epoch", "Epoch number of the published snapshot.",
    ).set(epoch)
    registry.histogram(
        "repro_epoch_publish_seconds",
        "Wall-clock time to apply a write batch and publish the "
        "next snapshot.",
        buckets=LATENCY_BUCKETS,
    ).observe(seconds)


def observe_snapshot_age(registry: MetricsRegistry,
                         seconds: float) -> None:
    """Record how stale the snapshot an admitted query read was."""
    registry.histogram(
        "repro_snapshot_age_seconds",
        "Age of the published snapshot at query admission.",
        buckets=LATENCY_BUCKETS,
    ).observe(seconds)


def set_admission_gauges(registry: MetricsRegistry, *,
                         inflight: int, queue_depth: int) -> None:
    """Set the point-in-time admission gauges.

    Called when admission state changes (admit, release, reject), so
    ``/metrics`` always shows the live in-flight count.
    """
    registry.gauge(
        "repro_inflight_queries",
        "Queries currently evaluating.",
    ).set(inflight)
    registry.gauge(
        "repro_admission_queue_depth",
        "Callers waiting for an admission slot.",
    ).set(queue_depth)


def export_database_gauges(registry: MetricsRegistry,
                           database) -> None:
    """Set the point-in-time database gauges from a
    :meth:`~repro.ra.database.Database.metrics_snapshot`.

    Called at scrape/snapshot time (``GET /metrics``, ``GET /stats``),
    never on a query path — reading relation sizes per query would be
    overhead for a value only the scraper needs.
    """
    snapshot = database.metrics_snapshot()
    rows = registry.gauge("repro_relation_rows",
                          "Rows per stored relation.", ("relation",))
    versions = registry.gauge(
        "repro_relation_version",
        "Mutation counter per relation (invalidation epoch).",
        ("relation",))
    for name, info in snapshot["relations"].items():
        rows.set(info["rows"], relation=name)
        versions.set(info["version"], relation=name)
    registry.gauge(
        "repro_symbols_total",
        "Constants interned in the database's symbol table.",
    ).set(snapshot["symbols"])
    registry.gauge(
        "repro_encoded_bytes_estimate",
        "Approximate bytes of encoded fact storage (tuple slots "
        "plus dictionary payload).",
    ).set(snapshot["encoded_bytes_estimate"])
    from ..engine.plan import plan_cache_size
    registry.gauge(
        "repro_plan_cache_size",
        "Compiled join plans in the process-wide cache.",
    ).set(plan_cache_size())


def export_build_info(registry: MetricsRegistry) -> None:
    """Publish the ``repro_build_info`` identity gauge (value 1).

    The standard build-info idiom: the interesting facts — package
    version, python version, vector backend (the numpy
    version, or ``none`` when numpy is unavailable) — live in the
    labels so dashboards and smoke logs can join any series against
    what is actually running.  Set once at server construction.
    """
    import platform

    from .. import __version__
    from ..engine.vector import numpy_version

    numpy_v = numpy_version()
    registry.gauge(
        "repro_build_info",
        "Build/runtime identity; value is always 1.",
        ("version", "python", "vector"),
    ).set(1, version=__version__, python=platform.python_version(),
          vector=f"numpy {numpy_v}" if numpy_v else "none")
