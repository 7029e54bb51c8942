"""A monitored HTTP query server over a deductive-database session.

``repro serve program.dl`` turns the reproduction into a long-lived
service built entirely on the stdlib:

* ``POST /query`` — evaluate a query; JSON in
  (``{"query": "P(a, Y)", "engine"?: ..., "timeout_s"?: ...,
  "max_rows"?: ...}``; a field the server does not read is ignored),
  JSON out (answers, count, outcome, epoch, duration, the query's full
  :meth:`~repro.engine.stats.EvaluationStats.to_dict`).  The
  ``answers`` array is rendered straight from the lazy columnar
  :class:`~repro.ra.answers.AnswerSet`: one ``json.dumps`` per
  *distinct* constant (answer columns repeat few distinct values),
  one fragment per row, written in bounded chunks under a
  precomputed ``Content-Length`` — the only point in the service
  where decode is forced, metered by ``repro_decode_seconds``;
* ``POST /facts`` — one write batch
  (``{"add"?: {pred: [rows]}, "remove"?: {pred: [rows]},
  "rules"?: [text]}``) applied atomically as one epoch;
* ``POST /jobs`` (or ``POST /query`` with ``"mode": "async"``) —
  submit the same query document as a background job: the response is
  an immediate ``202`` with a job id, the evaluation runs later on a
  worker thread against the epoch snapshot **pinned at submit time**
  (:mod:`repro.jobs`), so a class-D/E/F fixpoint that outlives any
  HTTP connection still completes and its result survives client
  disconnects until the TTL;
* ``GET /jobs`` / ``GET /jobs/<id>`` — job list / one job's status
  (``queued | running | done | timeout | truncated | error |
  cancelled``) with live progress (rounds completed, rows derived so
  far);
* ``GET /jobs/<id>/result`` — the finished job's answers, streamed
  through the same columnar renderer as a synchronous ``/query``;
* ``DELETE /jobs/<id>`` — cancel: a queued job dies immediately, a
  running one aborts cooperatively at its next round boundary;
* ``GET /metrics`` — the session registry in Prometheus text
  exposition format (database gauges refreshed at scrape time;
  ``--exemplars`` adds query-id exemplars to latency buckets);
* ``GET /healthz`` — liveness (200 + version/uptime/served/epoch/job
  counters);
* ``GET /stats`` — the registry's JSON snapshot plus server info;
* ``GET /debug/traces`` / ``GET /debug/traces/<query_id>`` — the
  flight recorder (:mod:`repro.flight`): recent request traces with
  service phases, capture counters, and the full engine trace for
  sampled/forced/slow requests.

Every request carries a **query id** — minted per request, or
propagated from a valid ``X-Repro-Query-Id`` header — that appears in
the response envelope and header, the job documents, each JSON log
line, the recorded trace, and (with ``--exemplars``) the duration
histogram's exemplars, so the three observability signals join on one
key.

Request parameters (``engine``, ``timeout_s``, ``max_rows``,
``mode``, ``trace``) are validated up front: a malformed value —
``"timeout_s": "5"``, a negative row cap, an unknown mode — is a
``400`` with a field-specific error body, never a ``500`` out of the
engine internals.  Bodies are bounded before they are read: a missing
or non-numeric ``Content-Length`` is a ``400``, one over
:data:`MAX_BODY_BYTES` a ``413``, and a connection that stalls for
:data:`REQUEST_TIMEOUT_S` is closed.

Concurrency model (:mod:`repro.service`): there is **no query lock**.
Reads run concurrently on the published epoch snapshot — an immutable
:meth:`~repro.session.DeductiveDatabase.fork_reader` republished
atomically after every write batch — so a query sees either the
pre-batch or post-batch database, never a mix.  Admission control
bounds concurrent evaluations (excess requests get ``429`` with
``Retry-After``); per-query wall-clock budgets abort the fixpoint at a
round boundary (``408``); row limits return sound partial answers
flagged ``"truncated"``; during drain new queries get ``503``.
Scrapes of ``/metrics``/``/healthz`` never wait on a running query.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter, time

from . import __version__
from .datalog.errors import ReproError
from .engine.stats import EvaluationStats
from .flight import FlightRecorder
from .jobs import JobQueue, JobQueueFull, JobStates, UnknownJob
from .logutil import new_query_id, valid_query_id
from .metrics.instrument import export_build_info, observe_decode
from .service import (EpochManager, QueryResult, QueryService,
                      ServiceDraining, failure_outcome)
from .session import DeductiveDatabase

__all__ = ["QueryServer"]

#: Largest request body the server reads; a longer ``Content-Length``
#: is refused with ``413`` before any byte of the body is read.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Socket timeout of every handler connection, in seconds: a client
#: that stalls mid-request or idles on keep-alive this long is closed,
#: so it cannot pin a handler thread forever.
REQUEST_TIMEOUT_S = 120.0


class _BadRequest(ValueError):
    """A request document failed validation (field-specific 400)."""


def _is_constant(value) -> bool:
    """A JSON value usable as a fact constant: a string or a finite
    number.  Not ``bool`` (``True == 1`` would alias a stored
    constant), ``null`` (the match wildcard) or NaN/Infinity (which
    the ``json`` module accepts)."""
    kind = type(value)
    return kind is str or kind is int or (
        kind is float and math.isfinite(value))


def _malformed_rows(field: str, facts: dict) -> str | None:
    """Why a ``/facts`` ``"add"``/``"remove"`` object is malformed
    (naming the predicate and the row index), or None when every
    predicate maps to an array of rows of constants."""
    for predicate, rows in facts.items():
        if not isinstance(rows, list):
            return f'"{field}"["{predicate}"] must be an array of rows'
        for index, row in enumerate(rows):
            if not (isinstance(row, list) and all(map(_is_constant, row))):
                return (f'"{field}"["{predicate}"] row {index} must be '
                        f'an array of strings and finite numbers, got '
                        f'{json.dumps(row)}')
    return None


def _validate_query_request(request: dict, *, default_engine: str) -> dict:
    """Normalise a ``/query``-shaped document or raise :class:`_BadRequest`.

    Every client-supplied knob is checked for type and range *before*
    anything reaches the engine layer, so a request like
    ``{"timeout_s": "5"}`` is a clear 400 naming the field instead of
    a 500 out of ``Deadline.__init__``.  ``bool`` is a subclass of
    ``int`` in Python, so it is rejected explicitly wherever a number
    is expected (``"max_rows": true`` must not mean ``max_rows=1``).
    """
    query = request.get("query")
    if not isinstance(query, str) or not query.strip():
        raise _BadRequest('"query" must be a non-empty string')
    engine = request.get("engine", default_engine)
    if not isinstance(engine, str):
        raise _BadRequest('"engine" must be a string, got '
                          f'{type(engine).__name__}')
    timeout_s = request.get("timeout_s")
    if timeout_s is not None:
        if (isinstance(timeout_s, bool)
                or not isinstance(timeout_s, (int, float))):
            raise _BadRequest('"timeout_s" must be a number of '
                              f'seconds, got {timeout_s!r}')
        if not math.isfinite(timeout_s) or timeout_s < 0:
            raise _BadRequest('"timeout_s" must be a finite '
                              f'non-negative number, got {timeout_s}')
    max_rows = request.get("max_rows")
    if max_rows is not None:
        if isinstance(max_rows, bool) or not isinstance(max_rows, int):
            raise _BadRequest('"max_rows" must be a non-negative '
                              f'integer, got {max_rows!r}')
        if max_rows < 0:
            raise _BadRequest('"max_rows" must be non-negative, got '
                              f'{max_rows}')
    mode = request.get("mode", "sync")
    if mode not in ("sync", "async"):
        raise _BadRequest('"mode" must be "sync" or "async", got '
                          f'{mode!r}')
    trace = request.get("trace", False)
    if not isinstance(trace, bool):
        raise _BadRequest('"trace" must be a boolean, got '
                          f'{trace!r}')
    return {"query": query, "engine": engine,
            "timeout_s": timeout_s, "max_rows": max_rows,
            "mode": mode, "trace": trace}


class QueryServer:
    """Own a :class:`ThreadingHTTPServer` bound to a session.

    *session* should carry a metrics registry (``/metrics`` renders an
    empty page otherwise); ``port=0`` binds an ephemeral port, read it
    back from :attr:`port`.  *session* stays the authoritative store —
    the server wraps it in an :class:`~repro.service.EpochManager` and
    serves reads from published snapshots.
    """

    def __init__(self, session: DeductiveDatabase,
                 host: str = "127.0.0.1", port: int = 8080,
                 default_engine: str = "compiled",
                 max_inflight: int = 8,
                 query_timeout_s: float | None = None,
                 max_rows: int | None = None,
                 drain_grace_s: float = 10.0,
                 job_workers: int = 2,
                 job_ttl_s: float = 600.0,
                 trace_buffer: int = 256,
                 trace_sample: float = 0.01,
                 slow_query_ms: float | None = None,
                 exemplars: bool = False) -> None:
        self.session = session
        self.default_engine = default_engine
        self.drain_grace_s = drain_grace_s
        self.epochs = EpochManager(session)
        self.service = QueryService(self.epochs,
                                    max_inflight=max_inflight,
                                    query_timeout_s=query_timeout_s,
                                    max_rows=max_rows)
        self.recorder = FlightRecorder(trace_buffer,
                                       sample_rate=trace_sample,
                                       slow_query_ms=slow_query_ms,
                                       metrics=session.metrics)
        self.jobs = JobQueue(self.service, workers=job_workers,
                             ttl_s=job_ttl_s, recorder=self.recorder)
        if session.metrics is not None:
            if exemplars:
                session.metrics.exemplars = True
            export_build_info(session.metrics)
        self.started_at = time()
        self.queries_served = 0
        # handler threads race on the served counter; the
        # read-modify-write must be atomic or /healthz drifts from the
        # per-response sum the smoke reconciles against
        self._served_lock = threading.Lock()
        self._shutdown_done = False
        server = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = REQUEST_TIMEOUT_S

            def log_message(self, format, *args):  # noqa: A002
                pass  # one structured line per query instead

            def do_GET(self):  # noqa: N802
                server._get(self)

            def do_POST(self):  # noqa: N802
                server._post(self)

            def do_DELETE(self):  # noqa: N802
                server._delete(self)

        class _Server(ThreadingHTTPServer):
            # the stdlib default backlog (5) resets simultaneous
            # connects from even modest client fleets; admission
            # control, not the listen queue, is the intended gate
            request_queue_size = 128

        self.httpd = _Server((host, port), _Handler)

    # -- lifecycle -----------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def graceful_shutdown(self, grace_s: float | None = None) -> bool:
        """Drain in-flight queries, log the fact, stop the listener.

        New queries and jobs get ``503`` the moment the drain starts;
        queued jobs are cancelled immediately (nobody polls a dead
        server), while running jobs and in-flight queries get up to
        *grace_s* (default: the server's ``drain_grace_s``) to finish
        — running jobs past the grace are cooperatively cancelled at
        their next round boundary.  Safe to call more than once and
        from any thread except the one inside :meth:`serve_forever`.
        Returns whether the drain completed cleanly.
        """
        if self._shutdown_done:
            return True
        self._shutdown_done = True
        grace = self.drain_grace_s if grace_s is None else grace_s
        # jobs first: running jobs occupy admission slots, so landing
        # them (or cancelling them at a round boundary) is what lets
        # the service drain observe an empty in-flight set
        jobs_drained = self.jobs.drain(grace)
        drained = self.service.drain(grace) and jobs_drained
        if self.session.query_log is not None:
            self.session.query_log.log(
                event="server_shutdown", drained=drained,
                queries_served=self.queries_served,
                jobs_submitted=self.jobs.submitted_total,
                jobs_finished=self.jobs.finished_total,
                jobs_cancelled=self.jobs.outcomes[
                    JobStates.CANCELLED],
                epoch=self.epochs.current.number,
                uptime_s=round(time() - self.started_at, 3))
        self.httpd.shutdown()
        return drained

    def shutdown(self) -> None:
        self.graceful_shutdown()

    def close(self) -> None:
        self.httpd.server_close()

    # -- responses -----------------------------------------------------

    @staticmethod
    def _send(handler, status: int, body: str,
              content_type: str = "application/json",
              headers: dict | None = None) -> None:
        payload = body.encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type",
                            f"{content_type}; charset=utf-8")
        handler.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            handler.send_header(name, str(value))
        handler.end_headers()
        handler.wfile.write(payload)

    def _send_json(self, handler, status: int, document: dict,
                   headers: dict | None = None) -> None:
        self._send(handler, status,
                   json.dumps(document, ensure_ascii=False, indent=2)
                   + "\n", headers=headers)

    def _send_result(self, handler, result: QueryResult, *, query: str,
                     query_id: str, duration_s: float,
                     ctx=None, started: float = 0.0) -> None:
        """Decode, meter and render one :class:`QueryResult` as a 200.

        Rendering is where a lazy answer set is finally forced; that
        decode is metered (a cached, already-decoded set records
        nothing).  The envelope round-trips through ``json.dumps``;
        the ``answers`` array is spliced in from per-row fragments
        built with a per-distinct-value dump memo, and the body goes
        out as bounded chunks (one socket write per ~64 KiB) under one
        precomputed ``Content-Length`` — no monolithic join of a
        million-row string, no intermediate list-of-lists.

        A synchronous request passes its *ctx* (opened at
        perf-counter time *started*): the decode and render phases
        are recorded on it and it is closed into the flight recorder
        after the body is rendered but before the first socket write,
        so by the time a client can read the response its trace is
        already retrievable — no read-after-response race on
        ``GET /debug/traces/<id>``.
        """
        answers = result.answers
        was_lazy = not answers.is_decoded
        decode_started = perf_counter()
        rows = answers.sorted_rows()
        if ctx is not None:
            ctx.add_phase("decode", decode_started, lazy=was_lazy)
        if was_lazy and self.session.metrics is not None:
            observe_decode(self.session.metrics,
                           answers.decode_seconds, len(answers))
        render_started = perf_counter()
        envelope = {"query": query, "engine": result.stats.engine,
                    "count": len(rows), "query_id": query_id}
        head = json.dumps(envelope, ensure_ascii=False, indent=2)[:-2]
        tail = json.dumps(
            {"outcome": result.outcome,
             "truncated": result.outcome == "truncated",
             "epoch": result.epoch, "duration_s": duration_s,
             "stats": result.stats.to_dict()},
            ensure_ascii=False, indent=2)[2:]
        memo: dict = {}

        def fragment(value) -> str:
            frag = memo.get(value)
            if frag is None:
                frag = memo[value] = json.dumps(value,
                                                ensure_ascii=False)
            return frag

        parts = [head, ',\n  "answers": [']
        last = len(rows) - 1
        for index, row in enumerate(rows):
            parts.append("\n    ["
                         + ", ".join(fragment(v) for v in row)
                         + ("]," if index != last else "]"))
        parts.append("\n  ],\n" if rows else "],\n")
        parts.append(tail + "\n")
        chunks = [part.encode("utf-8") for part in parts]
        if ctx is not None:
            # the render phase covers serialisation, not the
            # client-paced writes
            ctx.add_phase("render", render_started, rows=len(rows))
            self._close_request(ctx, result.stats, started,
                                result.outcome, epoch=result.epoch,
                                answers=len(rows))
        handler.send_response(200)
        handler.send_header("Content-Type",
                            "application/json; charset=utf-8")
        handler.send_header("Content-Length",
                            str(sum(len(c) for c in chunks)))
        handler.send_header("X-Repro-Query-Id", query_id)
        handler.end_headers()
        write = handler.wfile.write
        buffer = bytearray()
        for chunk in chunks:
            buffer += chunk
            if len(buffer) >= 65536:
                write(bytes(buffer))
                buffer.clear()
        if buffer:
            write(bytes(buffer))

    # -- routes --------------------------------------------------------

    def _get(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        # reads describe the published snapshot, never the
        # authoritative session a write batch may be mutating
        epoch = self.epochs.current
        if path == "/healthz":
            self._send_json(handler, 200, {
                "status": ("draining" if self.service.draining
                           else "ok"),
                **self._server_info(epoch),
                "predicates": sorted(
                    epoch.session.idb_predicates
                    | set(epoch.session._edb.relation_names)),
            })
        elif path == "/metrics":
            epoch.session.collect_gauges()
            text = (self.session.metrics.render_prometheus()
                    if self.session.metrics is not None else "")
            self._send(handler, 200, text,
                       content_type="text/plain; version=0.0.4")
        elif path == "/stats":
            epoch.session.collect_gauges()
            snapshot = (self.session.metrics.snapshot()
                        if self.session.metrics is not None
                        else {"metrics": []})
            snapshot["server"] = {
                **self._server_info(epoch, detail=True),
                "recorder": self.recorder.stats(),
            }
            self._send_json(handler, 200, snapshot)
        elif path == "/debug/traces":
            self._send_json(handler, 200, self.recorder.report())
        elif path.startswith("/debug/traces/"):
            query_id = path[len("/debug/traces/"):]
            document = self.recorder.get(query_id)
            if document is None:
                self._send_json(handler, 404, {
                    "error": f"no recorded trace for {query_id!r} "
                             "(never captured, or evicted)"})
            else:
                self._send_json(handler, 200, document)
        elif path == "/jobs":
            self._send_json(handler, 200, {
                "jobs": [job.to_dict() for job in self.jobs.jobs()],
                "queued": self.jobs.queued,
                "running": self.jobs.running,
            })
        elif path.startswith("/jobs/"):
            self._get_job(handler, path)
        else:
            self._send_json(handler, 404,
                            {"error": f"unknown path {path!r}"})

    def _server_info(self, epoch, detail: bool = False) -> dict:
        """The counters ``/healthz`` reports; *detail* adds the
        admission limit and completions for ``/stats``."""
        service = self.service
        info = {
            "version": __version__,
            "uptime_s": round(time() - self.started_at, 3),
            "queries_served": self.queries_served,
            "epoch": epoch.number,
            "inflight": service.inflight,
        }
        if detail:
            info["max_inflight"] = service.max_inflight
        info["admitted_total"] = service.admitted_total
        info["rejected_total"] = service.rejected_total
        if detail:
            info["completed_total"] = service.completed_total
        info["jobs"] = {
            "queued": self.jobs.queued,
            "running": self.jobs.running,
            "submitted_total": self.jobs.submitted_total,
            "finished_total": self.jobs.finished_total,
            "outcomes": dict(self.jobs.outcomes),
        }
        return info

    def _get_job(self, handler, path: str) -> None:
        tail = path[len("/jobs/"):]
        job_id, _, rest = tail.partition("/")
        if rest not in ("", "result"):
            self._send_json(handler, 404,
                            {"error": f"unknown path {path!r}"})
            return
        try:
            job = self.jobs.get(job_id)
        except UnknownJob as error:
            self._send_json(handler, 404, {"error": str(error)})
            return
        if rest == "":
            self._send_json(handler, 200, job.to_dict())
        else:
            self._send_job_result(handler, job)

    def _send_job_result(self, handler, job) -> None:
        """``GET /jobs/<id>/result``: the finished answers, or why not.

        An unfinished job is a ``409`` carrying live progress (poll
        the status URL instead); a cancelled job is a ``409`` too, and
        any other failed run answers the status its failure mapped to
        (408 timeout, 400/500 for errors); a ``done`` or
        ``truncated`` job streams through the same columnar renderer —
        and the same decode metering — as a synchronous ``/query``.
        """
        if not job.finished:
            self._send_json(handler, 409, {
                "error": f"job {job.id} is {job.state}; "
                         "result not ready",
                "state": job.state,
                "progress": job.progress(),
            })
            return
        if job.result is None:
            status = (409 if job.state == JobStates.CANCELLED
                      else job.error_status)
            self._send_json(handler, status, {
                "error": job.error or job.state,
                "state": job.state,
            })
            return
        self._send_result(handler, job.result, query=job.query,
                          query_id=job.query_id,
                          duration_s=round(job.result.duration_s, 6))

    def _post(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        if path in ("/query", "/jobs"):
            self._post_query(handler, force_async=path == "/jobs")
        elif path == "/facts":
            self._post_facts(handler)
        else:
            self._send_json(handler, 404,
                            {"error": f"unknown path {path!r}"})

    def _delete(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        job_id = path[len("/jobs/"):]
        if not path.startswith("/jobs/") or "/" in job_id:
            self._send_json(handler, 404,
                            {"error": f"unknown path {path!r}"})
            return
        try:
            job = self.jobs.request_cancel(job_id)
        except UnknownJob as error:
            self._send_json(handler, 404, {"error": str(error)})
            return
        self._send_json(handler, 200, {
            "id": job.id,
            "state": job.state,
            "cancel_requested": job.cancel.is_set(),
        })

    def _read_body(self, handler) -> dict | None:
        """The request's JSON object, or None once a 4xx is sent.

        ``Content-Length`` is checked before any byte is read: a
        negative length would read to EOF (a keep-alive client never
        sends one) and a huge one would be allocated up front.  Both
        refusals close the connection, since the unread body would
        otherwise be parsed as the next request.
        """
        declared = handler.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(
                handler, 400,
                {"error": f"bad Content-Length: {declared!r}"},
                headers={"Connection": "close"})
            return None
        if length > MAX_BODY_BYTES:
            self._send_json(
                handler, 413,
                {"error": f"request body of {length} bytes exceeds "
                          f"the {MAX_BODY_BYTES}-byte limit"},
                headers={"Connection": "close"})
            return None
        try:
            request = json.loads(
                handler.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self._send_json(handler, 400,
                            {"error": f"bad request body: {error}"})
            return None
        if not isinstance(request, dict):
            self._send_json(handler, 400,
                            {"error": "request must be a JSON object"})
            return None
        return request

    def _validated(self, handler, request: dict) -> dict | None:
        try:
            return _validate_query_request(
                request, default_engine=self.default_engine)
        except _BadRequest as error:
            self._send_json(handler, 400, {"error": str(error)})
            return None

    @staticmethod
    def _request_query_id(handler) -> str:
        """The request's query id: a valid ``X-Repro-Query-Id``
        header propagates the caller's id, otherwise one is minted."""
        supplied = handler.headers.get("X-Repro-Query-Id")
        if supplied is not None and valid_query_id(supplied):
            return supplied
        return new_query_id()

    def _close_request(self, ctx, stats: EvaluationStats, started: float,
                       outcome: str, epoch: int | None = None,
                       answers: int = 0) -> None:
        """Close a request context into the flight recorder."""
        self.recorder.finalize(ctx, stats,
                               duration_s=perf_counter() - started,
                               outcome=outcome, epoch=epoch,
                               answers=answers,
                               query_log=self.session.query_log)

    def _post_query(self, handler, force_async: bool = False) -> None:
        """``POST /query``, and ``POST /jobs`` (*force_async*)."""
        request = self._read_body(handler)
        if request is None:
            return
        params = self._validated(handler, request)
        if params is None:
            return
        query_id = self._request_query_id(handler)
        if force_async or params["mode"] == "async":
            self._submit_job(handler, params, query_id=query_id)
            return
        ctx = self.recorder.context(query_id, query=params["query"],
                                    force=params["trace"])
        # evaluation overwrites the engine with the one that ran
        stats = EvaluationStats(engine=params["engine"])
        started = perf_counter()
        try:
            result = self.service.run(params["query"],
                                      engine=params["engine"],
                                      timeout_s=params["timeout_s"],
                                      max_rows=params["max_rows"],
                                      stats=stats, ctx=ctx)
        except Exception as error:  # a bug too: keep serving
            outcome, status = failure_outcome(error)
            body = {"error": (str(error) if status < 500
                              else f"{type(error).__name__}: {error}")}
            if status == 408:
                body["outcome"] = outcome
            body["query_id"] = query_id
            headers = None
            if status == 429:
                body["retry_after_s"] = error.retry_after_s
                headers = {"Retry-After": error.retry_after_s}
            elif status != 503:
                # 429 and 503 turn a query away before evaluation:
                # there is nothing to capture
                self._close_request(ctx, stats, started, outcome)
            self._send_json(handler, status, body, headers=headers)
            return
        with self._served_lock:
            self.queries_served += 1
        self._send_result(handler, result, query=params["query"],
                          query_id=query_id,
                          duration_s=round(perf_counter() - started, 6),
                          ctx=ctx, started=started)

    def _submit_job(self, handler, params: dict,
                    query_id: str | None = None) -> None:
        """202 + job id; the epoch is pinned inside ``submit``."""
        try:
            job = self.jobs.submit(params["query"],
                                   engine=params["engine"],
                                   timeout_s=params["timeout_s"],
                                   max_rows=params["max_rows"],
                                   query_id=query_id,
                                   trace=params["trace"])
        except ServiceDraining as error:
            self._send_json(handler, 503, {"error": str(error)})
            return
        except JobQueueFull as error:
            self._send_json(handler, 429, {"error": str(error)},
                            headers={"Retry-After": 1})
            return
        self._send_json(handler, 202, {
            "id": job.id,
            "query_id": job.query_id,
            "state": job.state,
            "epoch": job.epoch.number,
            "status_url": f"/jobs/{job.id}",
            "result_url": f"/jobs/{job.id}/result",
        }, headers={"X-Repro-Query-Id": job.query_id})

    def _post_facts(self, handler) -> None:
        request = self._read_body(handler)
        if request is None:
            return
        if self.service.draining:
            self._send_json(
                handler, 503,
                {"error": "service is draining; writes refused"})
            return
        add = request.get("add") or {}
        remove = request.get("remove") or {}
        rules = request.get("rules") or []
        if (not isinstance(add, dict) or not isinstance(remove, dict)
                or not isinstance(rules, list)
                or not all(isinstance(rule, str) for rule in rules)):
            self._send_json(
                handler, 400,
                {"error": '"add"/"remove" must be objects mapping '
                          'predicates to row arrays and "rules" an '
                          'array of rule strings'})
            return
        problem = (_malformed_rows("add", add)
                   or _malformed_rows("remove", remove))
        if problem is not None:
            self._send_json(handler, 400, {"error": problem})
            return
        query_id = self._request_query_id(handler)
        started = perf_counter()
        try:
            epoch = self.service.apply_batch(add=add, remove=remove,
                                             rules=rules)
        except (ReproError, ValueError, TypeError) as error:
            self._send_json(handler, 400, {"error": str(error),
                                           "query_id": query_id})
            return
        except Exception as error:  # defensive: keep serving
            self._send_json(
                handler, 500,
                {"error": f"{type(error).__name__}: {error}",
                 "query_id": query_id})
            return
        duration_s = round(perf_counter() - started, 6)
        added = {p: len(list(rows)) for p, rows in add.items()}
        removed = {p: len(list(rows)) for p, rows in remove.items()}
        if self.session.query_log is not None:
            self.session.query_log.log(
                event="write_batch", query_id=query_id,
                epoch=epoch.number,
                added=sum(added.values()),
                removed=sum(removed.values()),
                rules=len(rules), duration_s=duration_s)
        self._send_json(handler, 200, {
            "query_id": query_id,
            "epoch": epoch.number,
            "added": added,
            "removed": removed,
            "rules": len(rules),
            "duration_s": duration_s,
        }, headers={"X-Repro-Query-Id": query_id})
