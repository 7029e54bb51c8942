"""Request-scoped flight recorder: query ids, service phases, traces.

``repro serve`` threads one identity — the *query id* — through every
signal a request touches: the response envelope, the JSON query log,
the metrics exemplars, and the execution trace.  This module provides
the two pieces that tie them together:

``RequestContext``
    Carried alongside a single request (or background job) from
    admission to render.  It records **service-phase spans** — cheap
    ``perf_counter`` pairs for admission wait, epoch pin, engine
    fixpoint, decode, and render — for *every* request, and holds a
    passive :class:`~repro.engine.trace.Tracer` only when the request
    was sampled or capture was forced, so the un-sampled path never
    allocates per-round span objects.

``FlightRecorder``
    A bounded in-memory ring buffer of completed request documents
    (oldest evicted first), plus the capture policy: a seeded
    always-on sampler (``--trace-sample``), per-request forcing
    (``"trace": true`` / async job ``trace`` flag), and unconditional
    capture of anything slower than ``--slow-query-ms``.  Every
    capture is attributed to exactly **one** reason with priority
    forced > sampled > slow, so the reconciliation identity

        ``captured_total == forced_total + sampled_total + slow_total``

    holds by construction and is asserted over the wire by the
    mixed-load scenario of ``scripts/wire_smoke.py``.

The recorded document wraps the strict PR 3 trace schema rather than
extending it: ``{"query_id", ..., "phases": [...], "trace": {...}}``
keeps :func:`repro.engine.trace.validate_trace_dict` untouched.

Disabled is free: with ``sample_rate == 0``, no slow threshold, and
no forcing, a request allocates no tracer and records nothing beyond
a handful of floats — answers and stats are bit-identical to an
uninstrumented server.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from time import perf_counter, time
from typing import Any

from .engine.trace import Tracer

__all__ = ["FlightRecorder", "RequestContext", "class_of"]


def class_of(session: Any, query: str) -> str:
    """Best-effort formula-class label for ``query`` under ``session``.

    Used for trace summaries; never raises (malformed or unknown
    queries label as ``"unknown"``).
    """
    try:
        from .engine.query import Query

        return session.class_label(Query.parse(query).predicate)
    except Exception:
        return "unknown"


class RequestContext:
    """Per-request carrier for the query id, phase spans, and tracer.

    Create one via :meth:`FlightRecorder.context`; pass it down
    through :meth:`repro.service.QueryService.run`; close it with
    :meth:`FlightRecorder.close`.
    """

    __slots__ = ("query_id", "query", "force", "sampled", "tracer",
                 "phases", "started", "_t0")

    def __init__(self, query_id: str, *, query: str | None = None,
                 force: bool = False, sampled: bool = False) -> None:
        self.query_id = query_id
        self.query = query
        self.force = force
        self.sampled = sampled
        # Only sampled/forced requests pay for per-round span capture.
        self.tracer: Tracer | None = (
            Tracer(passive=True) if (force or sampled) else None)
        self.phases: list[dict[str, Any]] = []
        self.started = time()
        self._t0 = perf_counter()

    def add_phase(self, name: str, started: float,
                  ended: float | None = None, **detail: Any) -> None:
        """Record one service phase from ``perf_counter`` timestamps."""
        if ended is None:
            ended = perf_counter()
        span: dict[str, Any] = {
            "name": name,
            "offset_s": started - self._t0,
            "duration_s": ended - started,
        }
        if detail:
            span["detail"] = detail
        self.phases.append(span)

    def phase(self, name: str, **detail: Any) -> "_PhaseTimer":
        """Context manager recording ``name`` around a block."""
        return _PhaseTimer(self, name, detail)


class _PhaseTimer:
    __slots__ = ("_ctx", "_name", "_detail", "_started")

    def __init__(self, ctx: RequestContext, name: str,
                 detail: dict[str, Any]) -> None:
        self._ctx = ctx
        self._name = name
        self._detail = detail

    def __enter__(self) -> "_PhaseTimer":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._ctx.add_phase(self._name, self._started, **self._detail)


class FlightRecorder:
    """Bounded ring buffer of completed request trace documents.

    Thread-safe.  ``capacity`` bounds memory (oldest evicted first);
    ``sample_rate`` in ``[0, 1]`` drives a seeded ``random.Random``
    sampler (decisions are serialised under the lock, so a fixed
    ``seed`` yields a deterministic accept/reject sequence);
    ``slow_query_ms`` forces capture of any request at or above the
    threshold.  ``metrics``, when given, receives a
    ``repro_traces_captured_total{reason}`` counter per capture.
    """

    def __init__(self, capacity: int = 256, *, sample_rate: float = 0.0,
                 slow_query_ms: float | None = None,
                 seed: int | None = None, metrics: Any = None) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample rate must be within [0, 1]")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.slow_query_ms = slow_query_ms
        self.metrics = metrics
        self._sampler = random.Random(seed)
        self._lock = threading.Lock()
        self._ring: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.captured_total = 0
        self.forced_total = 0
        self.sampled_total = 0
        self.slow_total = 0
        self.evicted_total = 0

    # -- request lifecycle -------------------------------------------------

    def context(self, query_id: str, *, query: str | None = None,
                force: bool = False) -> RequestContext:
        """Open a :class:`RequestContext`, rolling the sampler once."""
        sampled = False
        if self.sample_rate > 0.0:
            with self._lock:
                sampled = self._sampler.random() < self.sample_rate
        return RequestContext(query_id, query=query, force=force,
                              sampled=sampled)

    def close(self, ctx: RequestContext, session: Any, *,
              duration_s: float, outcome: str, engine: str | None,
              epoch: int | None = None, answers: int = 0) -> None:
        """:meth:`finalize` a served request or job run: *session*
        labels the formula class of ``ctx.query`` and owns the query
        log a slow request is reported to."""
        self.finalize(ctx, duration_s=duration_s, outcome=outcome,
                      engine=engine,
                      formula_class=class_of(session, ctx.query or ""),
                      epoch=epoch, answers=answers,
                      query_log=session.query_log)

    def finalize(self, ctx: RequestContext, *, duration_s: float,
                 outcome: str, engine: str | None = None,
                 formula_class: str | None = None,
                 epoch: int | None = None, answers: int = 0,
                 query_log: Any = None) -> str | None:
        """Close ``ctx`` and capture it if policy says so.

        Returns the capture reason (``"forced"``/``"sampled"``/
        ``"slow"``) or ``None``.  A request slower than
        ``slow_query_ms`` additionally emits a ``slow_query`` event on
        ``query_log`` whatever the capture reason.
        """
        slow = (self.slow_query_ms is not None
                and duration_s * 1000.0 >= self.slow_query_ms)
        if ctx.force:
            reason = "forced"
        elif ctx.sampled:
            reason = "sampled"
        elif slow:
            reason = "slow"
        else:
            reason = None
        if slow and query_log is not None:
            query_log.log(event="slow_query", query_id=ctx.query_id,
                          query=ctx.query, engine=engine,
                          formula_class=formula_class, outcome=outcome,
                          duration_s=duration_s,
                          threshold_ms=self.slow_query_ms)
        if reason is None:
            return None
        trace = ctx.tracer.trace if ctx.tracer is not None else None
        document = {
            "query_id": ctx.query_id,
            "query": ctx.query,
            "engine": engine,
            "formula_class": formula_class,
            "outcome": outcome,
            "epoch": epoch,
            "answers": answers,
            "duration_s": duration_s,
            "captured_reason": reason,
            "ts": ctx.started,
            "phases": list(ctx.phases),
            "trace": trace.to_dict() if trace is not None else None,
        }
        with self._lock:
            self.captured_total += 1
            if reason == "forced":
                self.forced_total += 1
            elif reason == "sampled":
                self.sampled_total += 1
            else:
                self.slow_total += 1
            if ctx.query_id in self._ring:
                # A client re-used an id; latest capture wins, nothing
                # is evicted.
                del self._ring[ctx.query_id]
            elif len(self._ring) >= self.capacity:
                self._ring.popitem(last=False)
                self.evicted_total += 1
            self._ring[ctx.query_id] = document
        if self.metrics is not None:
            self.metrics.counter(
                "repro_traces_captured_total",
                "Requests captured by the flight recorder by reason.",
                ("reason",)).inc(1, reason=reason)
        return reason

    # -- inspection --------------------------------------------------------

    def get(self, query_id: str) -> dict[str, Any] | None:
        """Full recorded document for ``query_id``, or ``None``."""
        with self._lock:
            return self._ring.get(query_id)

    def summaries(self) -> list[dict[str, Any]]:
        """Newest-first one-line summaries of every retained trace."""
        with self._lock:
            documents = list(self._ring.values())
        out = []
        for doc in reversed(documents):
            out.append({
                "query_id": doc["query_id"],
                "engine": doc["engine"],
                "formula_class": doc["formula_class"],
                "outcome": doc["outcome"],
                "duration_s": doc["duration_s"],
                "answers": doc["answers"],
                "captured_reason": doc["captured_reason"],
                "phases": {span["name"]: span["duration_s"]
                           for span in doc["phases"]},
            })
        return out

    def stats(self) -> dict[str, Any]:
        """Counters + configuration, for ``/stats`` and ``/debug/traces``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "sample_rate": self.sample_rate,
                "slow_query_ms": self.slow_query_ms,
                "retained": len(self._ring),
                "captured_total": self.captured_total,
                "forced_total": self.forced_total,
                "sampled_total": self.sampled_total,
                "slow_total": self.slow_total,
                "evicted_total": self.evicted_total,
            }

    def report(self) -> dict[str, Any]:
        """The ``GET /debug/traces`` body: counters + summaries."""
        body = self.stats()
        body["traces"] = self.summaries()
        return body
