"""Background job queue for long-running queries.

The concurrent service (:mod:`repro.service`) still assumes a client
holds its HTTP connection for the whole evaluation — precisely what
the long fixpoints of the paper's unbounded classes cannot offer.
This module splits submission from evaluation:

* :meth:`JobQueue.submit` validates nothing and evaluates nothing: it
  records the query together with the **epoch pinned at submit time**
  (``manager.current`` the moment the job is accepted) and returns a
  :class:`Job` immediately.  Whenever the job actually runs — seconds
  or minutes later, after any number of write batches — it sees the
  database exactly as it was when the client submitted, the same
  snapshot-isolation contract a synchronous query gets from its own
  admission instant.
* A small pool of **worker threads** (bounded; ``--job-workers``)
  drains the queue through the *existing admission gate*:
  each job run is one :meth:`~repro.service.QueryService.run` call,
  so jobs occupy admission slots like any query and synchronous fast
  queries keep flowing through the remaining slots while a long job
  grinds.  Workers wait for a slot (``admit_wait_s``) instead of
  bouncing, so a busy service delays jobs rather than failing them.
* **Status** is observable mid-flight: the job's
  :class:`~repro.engine.stats.EvaluationStats` object is shared with
  the running engine, so :meth:`Job.progress` reads rounds completed
  and rows derived so far while the fixpoint is still looping (the
  read is advisory — no lock is taken against the engine thread).
* **Cancellation** is cooperative: cancelling a queued job just marks
  it; cancelling a running job sets a flag the engines check at round
  boundaries together with the wall-clock deadline
  (:class:`~repro.engine.deadline.Deadline`), so the fixpoint aborts
  at its next natural commit point with
  :class:`~repro.engine.deadline.QueryCancelled`.
* **Results expire**: finished jobs are retained for ``ttl_s``
  seconds and at most ``max_retained`` at once (oldest-finished
  evicted first), so an abandoned job cannot pin a million-row answer
  set forever.

Lifecycle::

    queued ──> running ──> done | timeout | truncated | error
       │           │
       └───────────┴─────> cancelled

Draining (server shutdown) extends the service's drain semantics to
jobs: intake stops, queued jobs are cancelled immediately, running
jobs get the grace period to finish and are cooperatively cancelled
when it expires.
"""

from __future__ import annotations

import queue
import secrets
import threading
from time import perf_counter, time

from .datalog.errors import ReproError
from .engine.deadline import QueryCancelled
from .engine.stats import EvaluationStats
from .logutil import new_query_id
from .service import (AdmissionRejected, QueryResult, QueryService,
                      ServiceDraining, failure_outcome)

__all__ = ["Job", "JobQueue", "JobQueueFull", "JobStates",
           "UnknownJob"]


class JobQueueFull(ReproError):
    """The backlog of queued jobs is at capacity (map to HTTP 429)."""


class UnknownJob(ReproError):
    """No job with that id exists (never existed, or expired)."""


class JobStates:
    """The job lifecycle vocabulary (also the ``/jobs`` wire values)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    TIMEOUT = "timeout"
    TRUNCATED = "truncated"
    ERROR = "error"
    CANCELLED = "cancelled"

    #: states a job can no longer leave
    FINISHED = frozenset({DONE, TIMEOUT, TRUNCATED, ERROR, CANCELLED})


class Job:
    """One submitted query and everything known about its run.

    Mutable fields are written by the queue/worker under the queue's
    lock; reads from the HTTP poller are either under that lock
    (:meth:`JobQueue.get`) or advisory (:meth:`progress` while
    running).
    """

    __slots__ = ("id", "query", "query_id", "engine",
                 "timeout_s", "max_rows", "epoch", "state",
                 "submitted_at", "started_at", "finished_at", "stats",
                 "cancel", "result", "error", "error_status", "trace",
                 "_queue_wait_s", "_run_s")

    def __init__(self, job_id: str, query: str, *, engine: str,
                 timeout_s: float | None,
                 max_rows: int | None, epoch,
                 query_id: str | None = None,
                 trace: bool = False) -> None:
        self.id = job_id
        self.query = query
        #: the request-scoped id: propagated from the submitting
        #: request, stamped on the run's log line, trace and exemplar
        self.query_id = query_id or new_query_id()
        #: force flight-recorder capture of the run
        self.trace = trace
        self.engine = engine
        self.timeout_s = timeout_s
        self.max_rows = max_rows
        #: the :class:`~repro.service.Epoch` pinned at submit time —
        #: the run evaluates this snapshot no matter when it starts
        self.epoch = epoch
        self.state = JobStates.QUEUED
        self.submitted_at = time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: live handle shared with the engine once running; the query
        #: close relabels it with the engine that ran and the class
        self.stats = EvaluationStats(engine=engine,
                                     formula_class="unknown")
        #: cooperative cancel flag, checked at round boundaries
        self.cancel = threading.Event()
        self.result: QueryResult | None = None
        self.error: str | None = None
        #: HTTP status of a failed run
        #: (:func:`~repro.service.failure_outcome`); a cancelled job's
        #: result answers 409 however it was cancelled
        self.error_status: int | None = None
        self._queue_wait_s: float | None = None
        self._run_s: float | None = None

    @property
    def finished(self) -> bool:
        return self.state in JobStates.FINISHED

    def progress(self) -> dict:
        """Advisory mid-flight progress from the live stats object.

        ``rows`` is the number of distinct new tuples the fixpoint has
        committed so far (the sum of per-round delta sizes);
        ``derived`` counts raw derivations before deduplication.  Both
        are written by the engine thread without a lock — a poll may
        observe a value one round stale, never a torn one (ints are
        replaced atomically under the GIL).
        """
        stats = self.stats
        return {"rounds": stats.rounds,
                "rows": sum(stats.delta_sizes),
                "derived": stats.derived}

    def to_dict(self) -> dict:
        """The ``GET /jobs/<id>`` status document."""
        document = {
            "id": self.id,
            "query_id": self.query_id,
            "state": self.state,
            "query": self.query,
            "engine": self.engine,
            "epoch": self.epoch.number,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": self.progress(),
            "cancel_requested": self.cancel.is_set(),
        }
        if self.timeout_s is not None:
            document["timeout_s"] = self.timeout_s
        if self.max_rows is not None:
            document["max_rows"] = self.max_rows
        if self.error is not None:
            document["error"] = self.error
        if self.result is not None:
            document["answers"] = len(self.result.answers)
            document["duration_s"] = round(self.result.duration_s, 6)
        return document


class JobQueue:
    """Bounded worker pool draining submitted jobs through a service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.QueryService` every job run goes
        through — admission, deadline defaults and epoch bookkeeping
        all come from it.
    workers:
        Worker threads (concurrent job evaluations).  Keep this below
        the service's ``max_inflight`` so synchronous queries always
        have admission headroom around running jobs.
    ttl_s:
        Seconds a finished job (and its result) is retained.
    max_retained:
        Upper bound on finished jobs kept at once; the oldest-finished
        are evicted first when exceeded.
    max_queued:
        Backlog bound; :meth:`submit` raises :class:`JobQueueFull`
        beyond it.
    recorder:
        Optional :class:`~repro.flight.FlightRecorder` shared with
        the server: each job run opens a request context under the
        job's query id, so sampled/forced/slow job evaluations land
        in ``/debug/traces`` exactly like synchronous requests.
    """

    #: how long one admission attempt waits for a slot before the
    #: worker re-checks the job's cancel flag and tries again
    _ADMIT_WAIT_SLICE_S = 0.25

    def __init__(self, service: QueryService, *, workers: int = 2,
                 ttl_s: float = 600.0, max_retained: int = 256,
                 max_queued: int = 64, recorder=None) -> None:
        if workers < 1:
            raise ValueError("job queue needs at least 1 worker")
        if max_retained < 1:
            raise ValueError("max_retained must be at least 1")
        self.service = service
        self.recorder = recorder
        self.workers = workers
        self.ttl_s = ttl_s
        self.max_retained = max_retained
        self.max_queued = max_queued
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._backlog: queue.Queue = queue.Queue()
        self._draining = False
        self._idle = threading.Condition(self._lock)
        self._queued = 0
        self._running = 0
        # plain counters for /healthz, /stats and the smoke's exact
        # reconciliation against the registry
        self.submitted_total = 0
        self.finished_total = 0
        self.outcomes: dict[str, int] = {
            state: 0 for state in sorted(JobStates.FINISHED)}
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-job-worker-{index}")
            for index in range(workers)]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    @property
    def metrics(self):
        return self.service.metrics

    def submit(self, query: str, *, engine: str = "compiled",
               timeout_s: float | None = None,
               max_rows: int | None = None,
               query_id: str | None = None,
               trace: bool = False) -> Job:
        """Enqueue a query against the epoch current *right now*.

        Returns the queued :class:`Job` immediately; raises
        :class:`~repro.service.ServiceDraining` during shutdown and
        :class:`JobQueueFull` when the backlog is at capacity.
        *query_id* carries the submitting request's id onto the run
        (minted fresh when ``None``); *trace=True* forces
        flight-recorder capture of the run.
        """
        epoch = self.service.manager.current
        job = Job(f"job-{secrets.token_hex(8)}", query, engine=engine,
                  timeout_s=timeout_s,
                  max_rows=max_rows, epoch=epoch, query_id=query_id,
                  trace=trace)
        with self._lock:
            if self._draining:
                raise ServiceDraining(
                    "service is draining; no new jobs accepted")
            self._purge_locked()
            if self._queued >= self.max_queued:
                raise JobQueueFull(
                    f"{self._queued} jobs queued "
                    f"(limit {self.max_queued})")
            self._jobs[job.id] = job
            self._queued += 1
            self.submitted_total += 1
            self._export_gauges_locked()
            if self.metrics is not None:
                from .metrics.instrument import observe_job_submitted
                observe_job_submitted(self.metrics)
        self._backlog.put(job)
        return job

    # -- lookup --------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job with *job_id*; raises :class:`UnknownJob` when it
        never existed or already expired."""
        with self._lock:
            self._purge_locked()
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(f"unknown job {job_id!r} (never "
                                 f"submitted, or expired)")
            return job

    def jobs(self) -> list[Job]:
        """Current jobs, newest submission first."""
        with self._lock:
            self._purge_locked()
            return sorted(self._jobs.values(),
                          key=lambda job: job.submitted_at,
                          reverse=True)

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def running(self) -> int:
        return self._running

    # -- cancellation --------------------------------------------------

    def request_cancel(self, job_id: str) -> Job:
        """Cancel *job_id*: a queued job finishes as ``cancelled`` on
        the spot, a running one gets its cooperative flag set (the
        engines abort at the next round boundary), a finished one is
        returned unchanged (cancelling it is a no-op, not an error).
        """
        with self._lock:
            self._purge_locked()
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(f"unknown job {job_id!r} (never "
                                 f"submitted, or expired)")
            job.cancel.set()
            if job.state == JobStates.QUEUED:
                # the worker skips cancelled jobs when it pops them
                self._finish_locked(job, JobStates.CANCELLED,
                                    error="cancelled while queued")
            return job

    # -- drain ---------------------------------------------------------

    def drain(self, grace_s: float = 10.0) -> bool:
        """Stop intake, cancel the backlog, wait out running jobs.

        Queued jobs are cancelled immediately (nobody will ever poll a
        dead server for them); running jobs get up to *grace_s* to
        finish and are cooperatively cancelled when the grace expires
        — the engines abort at their next round boundary, bounded by
        one round's work.  Returns ``True`` when every job reached a
        finished state within the grace.
        """
        deadline = perf_counter() + grace_s
        with self._lock:
            self._draining = True
            for job in self._jobs.values():
                if job.state == JobStates.QUEUED:
                    job.cancel.set()
                    self._finish_locked(job, JobStates.CANCELLED,
                                        error="cancelled by drain")
            while self._running > 0:
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    for job in self._jobs.values():
                        if job.state == JobStates.RUNNING:
                            job.cancel.set()
                    break
                self._idle.wait(remaining)
            # second wait: cancelled running jobs abort at the next
            # round boundary — give them a bounded moment to land
            while self._running > 0:
                remaining = deadline + 5.0 - perf_counter()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    @property
    def draining(self) -> bool:
        return self._draining

    # -- worker loop ---------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._backlog.get()
            if job is None:  # poison pill (tests only)
                return
            with self._lock:
                if job.state != JobStates.QUEUED:
                    continue  # cancelled while queued
                job.state = JobStates.RUNNING
                job.started_at = time()
                job._queue_wait_s = job.started_at - job.submitted_at
                self._queued -= 1
                self._running += 1
                self._export_gauges_locked()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        """One job evaluation: admission, run, outcome bookkeeping."""
        started = perf_counter()
        ctx = (self.recorder.context(job.query_id, query=job.query,
                                     force=job.trace)
               if self.recorder is not None else None)
        result = message = status = None
        try:
            while True:
                if job.cancel.is_set():
                    raise QueryCancelled("job cancelled before "
                                         "admission")
                try:
                    result = self.service.run(
                        job.query, engine=job.engine,
                        timeout_s=job.timeout_s,
                        max_rows=job.max_rows, epoch=job.epoch,
                        cancel=job.cancel, stats=job.stats,
                        admit_wait_s=self._ADMIT_WAIT_SLICE_S,
                        count_rejection=False, ctx=ctx)
                    break
                except AdmissionRejected:
                    # every slot stayed busy for the whole slice;
                    # re-check the cancel flag and keep waiting — a
                    # queued job prefers lateness over failure
                    continue
            outcome = result.outcome
        except Exception as error:  # keeps the worker alive, too
            outcome, status = failure_outcome(error)
            message = (str(error) if status < 500
                       else f"{type(error).__name__}: {error}")
        run_s = perf_counter() - started
        if ctx is not None:
            self.recorder.finalize(
                ctx, job.stats, duration_s=run_s, outcome=outcome,
                epoch=job.epoch.number,
                answers=len(result.answers) if result is not None else 0,
                query_log=job.epoch.session.query_log)
        # a finished state is the run's outcome label, "ok" aside
        state = JobStates.DONE if outcome == "ok" else outcome
        self._finish(job, state, result=result, error=message,
                     error_status=status, run_s=run_s)

    # -- bookkeeping ---------------------------------------------------

    def _finish(self, job: Job, state: str, *,
                result: QueryResult | None = None,
                error: str | None = None,
                error_status: int | None = None,
                run_s: float | None = None) -> None:
        with self._lock:
            job.result = result
            job.error = error
            job.error_status = error_status
            job._run_s = run_s
            self._running -= 1
            self._finish_locked(job, state)
            self._idle.notify_all()

    def _finish_locked(self, job: Job, state: str, *,
                       error: str | None = None) -> None:
        """Transition *job* to a finished *state* under the lock."""
        was_queued = job.state == JobStates.QUEUED
        if error is not None:
            job.error = error
        job.state = state
        job.finished_at = time()
        if was_queued:
            self._queued -= 1
        self.finished_total += 1
        self.outcomes[state] += 1
        self._export_gauges_locked()
        if self.metrics is not None:
            from .metrics.instrument import observe_job_finished
            observe_job_finished(
                self.metrics, outcome=state,
                queue_wait_s=(job._queue_wait_s
                              if job._queue_wait_s is not None
                              else job.finished_at - job.submitted_at),
                run_s=job._run_s)

    def _export_gauges_locked(self) -> None:
        if self.metrics is not None:
            from .metrics.instrument import set_job_gauges
            set_job_gauges(self.metrics, queue_depth=self._queued,
                           running=self._running)

    def _purge_locked(self) -> None:
        """Drop finished jobs past the TTL or beyond the retain cap."""
        now = time()
        finished = [job for job in self._jobs.values() if job.finished]
        for job in finished:
            if now - job.finished_at > self.ttl_s:
                del self._jobs[job.id]
        survivors = [job for job in self._jobs.values()
                     if job.finished]
        overflow = len(survivors) - self.max_retained
        if overflow > 0:
            survivors.sort(key=lambda job: job.finished_at)
            for job in survivors[:overflow]:
                del self._jobs[job.id]
