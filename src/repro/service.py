"""Snapshot-isolated concurrent evaluation: epochs and admission.

The HTTP layer (:mod:`repro.server`) used to serialise every query
behind one lock because the session's lazy caches are not designed for
concurrent *mutation*.  This module removes the lock without touching
the engines' single-threaded inner loops, by separating the two roles
a session plays:

* **One authoritative session** owns the truth.  All writes (fact and
  rule changes) go through :meth:`EpochManager.apply` under a writer
  lock, batched into *epochs*: after the batch mutates the
  authoritative session, :meth:`~repro.session.DeductiveDatabase.fork_reader`
  builds an immutable snapshot and one attribute assignment publishes
  it.  Readers therefore see either the pre-batch or the post-batch
  database — never a half-applied one.

* **Readers share the published snapshot.**  A fork's database is
  marked read-only, every fixpoint copies it before materialising, and
  the caches shared between its readers are filled with deterministic
  values under GIL-atomic dict-slot assignments — a race costs a
  duplicated computation, never a wrong answer (the contract is spelled
  out on :meth:`~repro.session.DeductiveDatabase.fork_reader` and
  property-tested in ``tests/test_service_properties.py``).

:class:`QueryService` adds the service disciplines around that core:
bounded admission (at most *max_inflight* concurrent evaluations; the
rest get :class:`AdmissionRejected` with a data-driven retry hint),
per-query deadlines (wall-clock budget and row limit, carried to the
engines by :class:`~repro.engine.deadline.Deadline` and enforced at
round boundaries), and graceful drain for shutdown.  Everything is
observable through the standard registry names
(:mod:`repro.metrics.instrument`): in-flight and queue-depth gauges,
rejected/timed-out counters, snapshot-age and epoch-publish
histograms.
"""

from __future__ import annotations

import math
import threading
from time import perf_counter, time
from typing import Callable, Iterable

from .datalog.errors import ReproError
from .engine.deadline import Deadline, QueryCancelled, QueryTimeout
from .engine.stats import EvaluationStats
from .session import DeductiveDatabase

__all__ = ["AdmissionRejected", "Epoch", "EpochManager", "QueryResult",
           "QueryService", "ServiceDraining", "failure_outcome"]


class AdmissionRejected(ReproError):
    """Admission control turned the query away (map to HTTP 429).

    ``retry_after_s`` is the service's estimate of when a slot frees
    up: the exponential moving average of recent query durations,
    floored at one second.
    """

    def __init__(self, message: str, retry_after_s: int) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceDraining(ReproError):
    """The service is draining and admits no new queries (HTTP 503)."""


#: How a query that raised ends, first matching row wins: the outcome
#: label (metrics, log line, flight recorder, job state) and the HTTP
#: status.  Anything unmatched is an internal error: ``error``, 500.
_FAILURES = (
    (AdmissionRejected, "rejected", 429),
    (ServiceDraining, "cancelled", 503),
    (QueryTimeout, "timeout", 408),
    (QueryCancelled, "cancelled", 409),
    ((ReproError, ValueError), "error", 400),
)


def failure_outcome(error: BaseException) -> tuple[str, int]:
    """The ``(outcome, HTTP status)`` a failed query ends with.

    >>> failure_outcome(QueryTimeout("query exceeded its 1s budget"))
    ('timeout', 408)
    >>> failure_outcome(KeyError("x"))
    ('error', 500)
    """
    for kinds, outcome, status in _FAILURES:
        if isinstance(error, kinds):
            return outcome, status
    return "error", 500


class Epoch:
    """One published snapshot: a number and an immutable reader fork."""

    __slots__ = ("number", "session", "published_monotonic",
                 "published_at")

    def __init__(self, number: int,
                 session: DeductiveDatabase) -> None:
        self.number = number
        #: the reader fork — share it between any number of threads
        self.session = session
        self.published_monotonic = perf_counter()
        #: wall-clock publish time, for human-facing surfaces
        self.published_at = time()

    def age_s(self) -> float:
        """Seconds since this snapshot was published."""
        return perf_counter() - self.published_monotonic


class EpochManager:
    """Writer-locked authority publishing immutable reader snapshots.

    >>> manager = EpochManager(_example_session())
    >>> manager.current.number
    0
    >>> epoch = manager.apply(
    ...     lambda s: s.add_fact("parent", "cal", "dee"))
    >>> epoch.number
    1
    >>> sorted(epoch.session.query("anc(cal, Y)"))
    [('cal', 'dee')]
    """

    def __init__(self, session: DeductiveDatabase) -> None:
        self._authoritative = session
        self._write_lock = threading.Lock()
        #: the published snapshot; reading this attribute is the whole
        #: reader-side protocol (attribute loads are atomic)
        self.current = Epoch(0, session.fork_reader())

    @property
    def session(self) -> DeductiveDatabase:
        """The authoritative (writable) session behind the epochs."""
        return self._authoritative

    def apply(self, mutate: Callable[[DeductiveDatabase], object]
              ) -> Epoch:
        """Run one write batch and publish the next snapshot.

        *mutate* receives the authoritative session under the writer
        lock; whatever it does — any mix of fact adds/removals and
        rule changes — becomes visible to readers in a single epoch.
        Returns the epoch it published.  A *mutate* that raises
        publishes nothing: the previous snapshot stays current.  Only
        an all-or-nothing *mutate* (such as
        :meth:`QueryService.apply_batch`) also leaves the authoritative
        session as it was; whatever a failing *mutate* wrote first is
        folded into the next successful epoch.
        """
        with self._write_lock:
            started = perf_counter()
            mutate(self._authoritative)
            epoch = Epoch(self.current.number + 1,
                          self._authoritative.fork_reader())
            self.current = epoch
            metrics = self._authoritative.metrics
            if metrics is not None:
                from .metrics.instrument import observe_epoch_publish
                observe_epoch_publish(
                    metrics, epoch=epoch.number,
                    seconds=perf_counter() - started)
        return epoch


class QueryResult:
    """What one admitted evaluation produced, with its provenance."""

    __slots__ = ("answers", "stats", "epoch", "duration_s")

    def __init__(self, answers, stats: EvaluationStats, epoch: int,
                 duration_s: float) -> None:
        self.answers = answers
        #: the labels and counters the session's query close left
        self.stats = stats
        #: number of the epoch the query read
        self.epoch = epoch
        self.duration_s = duration_s

    @property
    def outcome(self) -> str:
        """``"ok"`` or ``"truncated"`` (failures raise instead; see
        :func:`failure_outcome`)."""
        return self.stats.outcome


class QueryService:
    """Admission-controlled concurrent reads over an epoch manager.

    *max_inflight* bounds concurrent evaluations; an arrival finding
    every slot busy is rejected at once, unless its :meth:`run` call
    asks to wait.  *query_timeout_s* and *max_rows* are the
    per-query deadline defaults; a request may tighten or (for the
    timeout) loosen them per call.  All state transitions are exported
    to *metrics* when a registry is installed on the sessions.
    """

    def __init__(self, manager: EpochManager, *,
                 max_inflight: int = 8,
                 query_timeout_s: float | None = None,
                 max_rows: int | None = None) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.manager = manager
        self.max_inflight = max_inflight
        self.query_timeout_s = query_timeout_s
        self.max_rows = max_rows
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        self._draining = False
        #: EWMA of completed-query durations, the Retry-After source
        self._ewma_duration_s: float | None = None
        # plain counters for /healthz and the smoke's reconciliation
        self.admitted_total = 0
        self.rejected_total = 0
        self.completed_total = 0

    # -- admission -----------------------------------------------------

    @property
    def metrics(self):
        return self.manager.session.metrics

    def _export_gauges_locked(self) -> None:
        if self.metrics is not None:
            from .metrics.instrument import set_admission_gauges
            set_admission_gauges(self.metrics,
                                 inflight=self._inflight,
                                 queue_depth=self._queued)

    def retry_after_s(self) -> int:
        """Whole seconds until a slot plausibly frees up (>= 1)."""
        estimate = self._ewma_duration_s or 1.0
        return max(1, math.ceil(estimate))

    def _admit(self, wait_s: float = 0.0,
               count_rejection: bool = True) -> None:
        deadline = perf_counter() + wait_s
        with self._lock:
            if self._draining:
                raise ServiceDraining(
                    "service is draining; no new queries admitted")
            while self._inflight >= self.max_inflight:
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    # a job worker's slot poll is not a client
                    # rejection: it raises the same way but leaves the
                    # 429 telemetry alone (count_rejection=False)
                    if count_rejection:
                        self.rejected_total += 1
                        if self.metrics is not None:
                            from .metrics.instrument import (
                                observe_rejection)
                            observe_rejection(self.metrics)
                    self._export_gauges_locked()
                    raise AdmissionRejected(
                        f"{self._inflight} queries in flight "
                        f"(limit {self.max_inflight})",
                        retry_after_s=self.retry_after_s())
                self._queued += 1
                self._export_gauges_locked()
                try:
                    self._slot_free.wait(remaining)
                finally:
                    self._queued -= 1
                if self._draining:
                    self._export_gauges_locked()
                    raise ServiceDraining(
                        "service is draining; no new queries admitted")
            self._inflight += 1
            self.admitted_total += 1
            self._export_gauges_locked()

    def _release(self, duration_s: float) -> None:
        with self._lock:
            self._inflight -= 1
            self.completed_total += 1
            previous = self._ewma_duration_s
            self._ewma_duration_s = (
                duration_s if previous is None
                else 0.8 * previous + 0.2 * duration_s)
            self._export_gauges_locked()
            self._slot_free.notify_all()

    # -- querying ------------------------------------------------------

    def run(self, query: str, *, engine: str = "compiled",
            timeout_s: float | None = None,
            max_rows: int | None = None,
            epoch: Epoch | None = None,
            cancel=None,
            stats: EvaluationStats | None = None,
            admit_wait_s: float = 0.0,
            count_rejection: bool = True,
            ctx=None) -> QueryResult:
        """Admit, pin a snapshot, evaluate under a deadline, release.

        Raises :class:`AdmissionRejected` when every slot is busy,
        :class:`ServiceDraining` during shutdown, and
        :class:`~repro.engine.deadline.QueryTimeout` when the query's
        wall-clock budget expires mid-fixpoint.  A row limit does not
        raise: the engines stop the fixpoint at the next round
        boundary and the (sound, partial) answers come back with
        ``outcome == "truncated"``.

        The background job queue (:mod:`repro.jobs`) threads three
        extras through: *epoch* evaluates against a snapshot pinned
        earlier (at job-submit time) instead of the current one,
        *cancel* (an ``is_set()`` flag) rides the deadline so the
        engines abort with
        :class:`~repro.engine.deadline.QueryCancelled` at the next
        round boundary, and *stats* lets the caller keep a live handle
        on the evaluation's counters (rounds, delta sizes) while it
        runs — that is how job progress is surfaced mid-flight.
        *admit_wait_s* lets this call wait that long for a slot before
        it is rejected, and *count_rejection=False* keeps an expired
        wait out of the 429 counters (job workers wait for a slot in
        slices and retry — their polls are scheduling, not client
        rejections).

        *ctx* is an optional
        :class:`~repro.flight.RequestContext`: the service records
        the ``admission``, ``snapshot`` and ``engine`` phase spans on
        it, evaluates under its query id (so log lines and metric
        exemplars correlate with the request) and passes its tracer —
        if capture was sampled or forced — down to the engine.
        """
        admit_started = perf_counter()
        self._admit(admit_wait_s, count_rejection)
        if ctx is not None:
            ctx.add_phase("admission", admit_started)
        started = perf_counter()
        try:
            if epoch is None:
                epoch = self.manager.current
            age_s = epoch.age_s()
            if self.metrics is not None:
                from .metrics.instrument import observe_snapshot_age
                observe_snapshot_age(self.metrics, age_s)
            if ctx is not None:
                ctx.add_phase("snapshot", started, epoch=epoch.number,
                              snapshot_age_s=age_s)
            if stats is None:
                stats = EvaluationStats()
            stats.deadline = self._deadline(timeout_s, max_rows,
                                            cancel)
            engine_started = perf_counter()
            try:
                answers = epoch.session.query(
                    query, stats=stats, engine=engine,
                    trace=ctx.tracer if ctx is not None else None,
                    query_id=ctx.query_id if ctx is not None else None)
            finally:
                if ctx is not None:
                    ctx.add_phase("engine", engine_started)
            return QueryResult(answers, stats, epoch.number,
                               perf_counter() - started)
        finally:
            self._release(perf_counter() - started)

    def _deadline(self, timeout_s: float | None,
                  max_rows: int | None,
                  cancel=None) -> Deadline | None:
        effective_timeout = (self.query_timeout_s
                             if timeout_s is None else timeout_s)
        effective_rows = self.max_rows if max_rows is None else max_rows
        # a request may only tighten the service's row cap
        if self.max_rows is not None:
            effective_rows = (self.max_rows if effective_rows is None
                              else min(effective_rows, self.max_rows))
        if (effective_timeout is None and effective_rows is None
                and cancel is None):
            return None
        return Deadline(timeout_s=effective_timeout,
                        max_rows=effective_rows, cancel=cancel)

    # -- writes --------------------------------------------------------

    def apply_batch(self, *,
                    add: dict[str, Iterable[tuple]] | None = None,
                    remove: dict[str, Iterable[tuple]] | None = None,
                    rules: Iterable[str] | None = None) -> Epoch:
        """One write batch — adds, removals, new rules — one epoch.

        All or nothing
        (:meth:`~repro.session.DeductiveDatabase.write_batch`): a
        batch that raises publishes no epoch and leaves nothing behind
        for the next one.
        """
        return self.manager.apply(lambda session: session.write_batch(
            add=add, remove=remove, rules=rules))

    # -- shutdown ------------------------------------------------------

    def drain(self, grace_s: float = 10.0) -> bool:
        """Stop admitting, wait for in-flight queries, report success.

        Returns ``True`` when the last in-flight query finished within
        *grace_s*; ``False`` when the grace expired with work still
        running (the caller shuts down anyway — deadlines bound how
        long such a straggler can hold a thread).
        """
        with self._lock:
            self._draining = True
            # wake queued waiters so they fail fast with 503
            self._slot_free.notify_all()
            deadline = perf_counter() + grace_s
            while self._inflight > 0:
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    return False
                self._slot_free.wait(remaining)
            return True

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight


def _example_session() -> DeductiveDatabase:
    """Tiny session for the doctests above."""
    session = DeductiveDatabase()
    session.load("""
        anc(x, y) :- parent(x, z), anc(z, y).
        anc(x, y) :- parent(x, y).
        parent(ann, bea).
        parent(bea, cal).
    """)
    return session
