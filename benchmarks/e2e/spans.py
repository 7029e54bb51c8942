"""Benchmark-owned tracing shim: spans around calls into each layer.

:func:`install` wraps the public functions of every layer at the name
its caller looks up (``repro.session.compile_query``, the methods on
``QueryService``, ``repro.engine.seminaive.run_delta_loop`` ...), so
nothing under ``src/`` changes and an untraced run executes exactly the
program's own code.  A span is ``(id, name, start, end, parent, root,
qid)``: ``parent`` is the enclosing span on the same thread, ``root``
the outermost one, and ``qid`` the request's query id where the root
knows it.  Spans stay in memory and are written as JSON lines when the
traced process ends.

A layer's self time is its spans' duration minus the part covered by
their child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func, args: tuple, kwargs: dict,
             label=None, qid: str | None = None):
        """Run ``func(*args, **kwargs)`` inside one span.  *label*, when
        given, maps ``(args, kwargs)`` to a suffix read after the call
        (the strategy or backend that actually ran)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, root = stack[-1] if stack else (None, span_id)
        stack.append((span_id, root))
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if label is not None:
                name = f"{name}.{label(args, kwargs)}"
            # list.append is atomic under the GIL
            self.spans.append((span_id, name, start, end, parent, root,
                               qid))

    def wrap(self, func, name: str, label=None, qid=None):
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return recorder.call(name, func, args, kwargs, label,
                                 qid(args) if qid is not None else None)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


FIELDS = ("id", "name", "start", "end", "parent", "root", "qid")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _strategy(args, kwargs) -> str:
    compiled = kwargs.get("compiled", args[5] if len(args) > 5 else None)
    return (compiled.strategy.name.lower() if compiled is not None
            else "uncompiled")


def _backend(args, kwargs) -> str:
    # run_delta_loop(database, body, entry, out, total, delta, stats, ...)
    return args[6].backend or "none"


def _header_qid(args) -> str | None:
    # QueryServer._post/_get(self, handler): headers are parsed by now
    return args[1].headers.get("X-Repro-Query-Id")


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics attribute to."""
    import repro.core.classifier as classifier
    import repro.core.compile as compile_module
    import repro.engine.compiled as compiled_module
    import repro.engine.seminaive as seminaive_module
    import repro.metrics.instrument as instrument
    import repro.session as session_module
    from repro.engine.query import Query
    from repro.flight import FlightRecorder
    from repro.ra.answers import AnswerSet
    from repro.ra.database import Database
    from repro.server import QueryServer
    from repro.service import QueryService

    def method(owner, attr, name, label=None, qid=None):
        setattr(owner, attr,
                recorder.wrap(getattr(owner, attr), name, label, qid))

    def classmethod_(owner, attr, name):
        func = owner.__dict__[attr].__func__
        setattr(owner, attr, classmethod(recorder.wrap(func, name)))

    method(QueryServer, "_post", "server", qid=_header_qid)
    method(QueryServer, "_get", "server", qid=_header_qid)
    method(QueryService, "run", "service")
    method(QueryService, "apply_batch", "service.publish")
    method(session_module.DeductiveDatabase, "query", "session")
    method(session_module.DeductiveDatabase, "load", "datalog.load")
    classmethod_(Query, "parse", "datalog.parse")
    for module in (classifier, session_module):
        method(module, "classify", "core.classify")
    for module in (compile_module, session_module):
        method(module, "compile_query", "core.compile")
    method(Database, "copy", "ra.copy")
    classmethod_(Database, "from_dict", "ra.build")
    method(AnswerSet, "sorted_rows", "ra.decode")
    method(AnswerSet, "__iter__", "ra.decode")
    method(compiled_module.CompiledEngine, "evaluate", "engine.compiled",
           label=_strategy)
    method(seminaive_module.SemiNaiveEngine, "evaluate",
           "engine.seminaive")
    for module in (compiled_module, seminaive_module):
        method(module, "run_delta_loop", "engine.delta", label=_backend)
    method(instrument, "observe_query", "metrics.observe")
    method(FlightRecorder, "finalize", "flight.finalize")


# -- arithmetic ----------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    return {span["id"]: span["end"] - span["start"]
            - covered.get(span["id"], 0.0) for span in spans}


def self_by_name(spans: list[dict], keep=lambda span: True
                 ) -> dict[str, float]:
    """Summed self seconds per span name over the spans *keep* admits
    (self times are computed over all spans, so a kept span's children
    are subtracted even when they are not kept)."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        if keep(span):
            totals[span["name"]] = (totals.get(span["name"], 0.0)
                                    + own[span["id"]])
    return totals


def roots_by_qid(spans: list[dict]) -> dict[str, dict]:
    """Root spans carrying a query id, keyed by it."""
    return {span["qid"]: span for span in spans
            if span["qid"] is not None and span["parent"] is None}
