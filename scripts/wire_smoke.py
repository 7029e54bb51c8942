"""CI smoke: boot ``repro serve`` and check every identity over the wire.

One :class:`Server` harness (boot on an ephemeral port, HTTP helpers,
``/metrics`` parsing, SIGTERM drain) and one scenario function per
served behaviour.  Every scenario appends ``(label, observed,
expected)`` triples to a check list; a check holds when *observed*
equals *expected*, or satisfies it when *expected* is a :class:`Pred`.
The scenarios, one ``repro serve`` subprocess each:

* **session** (``--trace-sample 1.0 --exemplars --log-json``) — an
  8-query multi-engine session over a TC chain: answers, ``/healthz``,
  ``/metrics`` reconciled exactly with the per-response stats, one log
  line per query, and one query id joined across the response, the
  log, ``/debug/traces/<id>`` and a latency exemplar.  The same boot
  then drives one request of every family-owning shape, diffs the
  families ``/metrics`` exposes against ``docs/observability.md``,
  and checks every ``query`` log line against the doc's field table;
* **mixed load** — 16 client threads, five engines, classes A1/A5, a
  view and an EDB lookup, one deliberate truncation and one timeout
  per pass: zero 5xx and exact outcome, admission and flight-recorder
  identities;
* **contention** (``--max-inflight 1 --trace-sample 0``) —
  barrier-synchronised clients until a 429, each with
  ``Retry-After``, reconciled with ``/metrics``; the disabled
  recorder stays empty;
* **jobs** — a slow class-A5 async job survives a dropped poll while
  bounded (class D) sync queries flow beside it; the job ledger in
  ``/healthz`` and ``/metrics`` reconciles exactly;
* **drain** — SIGTERM with one running and two queued jobs exits 0
  with every job accounted for;
* **dropped mid-stream** — a client resets the connection after the
  status line of a multi-MB answer: the server keeps serving and
  counts the request exactly once.

Every server is stopped with SIGTERM and must exit 0; with a JSON log
its last line must be ``server_shutdown`` with ``drained: true``.
Exits non-zero when any check fails.

Usage::

    PYTHONPATH=src python scripts/wire_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import urllib.error
import urllib.request
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from repro.engine.vector import HAVE_NUMPY  # noqa: E402
from repro.metrics import parse_prometheus_text  # noqa: E402

DOC = os.path.join(ROOT, "docs", "observability.md")


# -- checks -------------------------------------------------------------------

class Pred:
    """An expected value given as a predicate, named for the report."""

    def __init__(self, text: str, test) -> None:
        self.text, self.test = text, test

    def __repr__(self) -> str:
        return self.text


POSITIVE = Pred("> 0", lambda value: value > 0)


class Aborted(Exception):
    """A required check failed; the rest of the scenario cannot run."""


def holds(observed, expected) -> bool:
    if isinstance(expected, Pred):
        return bool(expected.test(observed))
    return observed == expected


def require(checks: list, label: str, observed, expected) -> None:
    """Record a check and stop the scenario when it fails."""
    checks.append((label, observed, expected))
    if not holds(observed, expected):
        raise Aborted(label)


# -- the harness --------------------------------------------------------------

def _decode(response) -> object:
    raw = response.read()
    if response.headers.get_content_type() == "application/json":
        return json.loads(raw)
    return raw.decode("utf-8")


class Scrape:
    """One parsed ``GET /metrics`` page: samples, exemplars, families."""

    _TYPE_LINE = re.compile(r"^# TYPE (repro_[a-z0-9_]+) "
                            r"(?:counter|gauge|histogram)$", re.MULTILINE)

    def __init__(self, text: str) -> None:
        self.exemplars: dict = {}
        self.samples = parse_prometheus_text(text,
                                             exemplars=self.exemplars)
        self.families = set(self._TYPE_LINE.findall(text))

    def series_sum(self, name: str, **labels: str) -> float:
        """Sum of every *name* series whose labels include *labels*."""
        want = set(labels.items())
        return sum(value for (sample, pairs), value in self.samples.items()
                   if sample == name and want <= set(pairs))

    def check(self, table) -> list:
        """Checks for ``(name, labels, expected)`` rows of series sums."""
        return [(f"{name}{labels or ''}", self.series_sum(name, **labels),
                 expected) for name, labels, expected in table]


class Server:
    """``repro serve`` in a subprocess on an ephemeral port.

    Writes *program* to *workdir*, boots the server with *flags* (plus
    ``--log-json`` when *log* is set) and reads the ``serving on``
    banner.  Use as a context manager: the process is terminated on
    exit if :meth:`stop` did not already do so.  The server's stderr
    goes to a file in *workdir*: socketserver prints a traceback there
    for every connection a client resets, which is not a failure.
    """

    def __init__(self, workdir: str, name: str, program: str,
                 *flags: str, log: bool = False) -> None:
        path = os.path.join(workdir, f"{name}.dl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(program)
        argv = [sys.executable, "-m", "repro", "serve", path,
                "--port", "0", *flags]
        self.log_path = None
        if log:
            self.log_path = os.path.join(workdir, f"{name}.jsonl")
            argv += ["--log-json", self.log_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._stderr = open(os.path.join(workdir, f"{name}.stderr"), "w")
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        stderr=self._stderr, text=True,
                                        env=env)
        banner = self.process.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            self.__exit__()
            raise RuntimeError(f"no serving banner: {banner!r}")
        self.base = banner.split("serving on ", 1)[1]
        host, port = self.base.split("//", 1)[1].split(":")
        self.address = (host, int(port))

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()

    def request(self, method: str, path: str, document=None,
                headers: dict | None = None):
        """(status, body, headers) without raising on HTTP errors.

        JSON bodies are parsed, text bodies decoded.  Transient
        connection resets (the OS dropping a connect under a
        thundering herd) are retried: they are a client/kernel
        artefact, not a server response, and the checks count
        responses.
        """
        data = (json.dumps(document).encode("utf-8")
                if document is not None else None)
        fields = {"Content-Type": "application/json", **(headers or {})}
        request = urllib.request.Request(self.base + path, data, fields,
                                         method=method)
        for attempt in range(5):
            try:
                with urllib.request.urlopen(request,
                                            timeout=120) as response:
                    return (response.status, _decode(response),
                            dict(response.headers))
            except urllib.error.HTTPError as error:
                return error.code, _decode(error), dict(error.headers)
            except (ConnectionResetError, ConnectionRefusedError):
                if attempt == 4:
                    raise
                time.sleep(0.05 * (attempt + 1))

    def get(self, path: str):
        """The body of a GET that must answer 200."""
        status, body, _ = self.request("GET", path)
        if status != 200:
            raise AssertionError(f"GET {path}: HTTP {status}: {body}")
        return body

    def metrics(self) -> Scrape:
        return Scrape(self.get("/metrics"))

    def log_lines(self) -> list[dict]:
        with open(self.log_path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def stop(self, checks: list) -> dict:
        """SIGTERM: exit code 0 and, with a log, a final
        ``server_shutdown`` line with ``drained: true`` (returned)."""
        self.process.terminate()
        self.process.wait(timeout=60)
        checks.append(("SIGTERM exit code", self.process.returncode, 0))
        if self.log_path is None:
            return {}
        lines = self.log_lines()
        last = lines[-1] if lines else {}
        checks.append(("last log event", last.get("event"),
                       "server_shutdown"))
        checks.append(("server_shutdown drained", last.get("drained"),
                       True))
        return last


def rows(body: dict) -> set:
    return {tuple(row) for row in body["answers"]}


def run_table(server: Server, checks: list, table, path="/query"):
    """POST every ``(document, status, answers)`` row: check the status
    and, unless *answers* is None, the answer set.  Returns the
    ``(status, body)`` pairs."""
    results = []
    for document, status, answers in table:
        got, body, _ = server.request("POST", path, document)
        checks.append((f"POST {path} {json.dumps(document)} status",
                       got, status))
        if answers is not None and got == 200:
            checks.append((f"{json.dumps(document)} answers",
                           rows(body), answers))
        results.append((got, body))
    return results


def poll(server: Server, path: str, waiting: tuple, timeout_s: float,
         interval_s: float) -> dict:
    """GET *path* until its ``state`` leaves *waiting* (or time out);
    the last document."""
    deadline = time.monotonic() + timeout_s
    while True:
        document = server.get(path)
        if (document["state"] not in waiting
                or time.monotonic() >= deadline):
            return document
        time.sleep(interval_s)


def in_threads(target, args) -> None:
    pool = [threading.Thread(target=target, args=(arg,)) for arg in args]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


def hang_up(raw: socket.socket) -> None:
    """Close with a reset (``SO_LINGER`` on, zero timeout): no read, no
    FIN handshake — a client dying mid-request."""
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                   struct.pack("ii", 1, 0))
    raw.close()


# -- programs -----------------------------------------------------------------

def chain_program(lines: list[str], length: int) -> str:
    """*lines* plus the chain ``A(n0, n1) … A(n<length-1>, n<length>)``."""
    lines = lines + [f"A(n{i}, n{i + 1})." for i in range(length)]
    return "\n".join(lines) + "\n"


TC = ["P(x, y) :- A(x, z), P(z, y).",   # class A5 (transitive closure)
      "P(x, y) :- A(x, y)."]


def closure(length: int) -> frozenset:
    return frozenset((f"n{i}", f"n{j}") for i in range(length)
                     for j in range(i + 1, length + 1))


def from_node(pairs, node: str) -> set:
    return {pair for pair in pairs if pair[0] == node}


# -- session: one query id through every signal, then the metrics lint --------

TC8 = closure(8)

#: (document, status, answers): five engines, bound and free forms
SESSION = [
    ({"query": "P(n0, Y)"}, 200, from_node(TC8, "n0")),
    ({"query": "P(X, Y)"}, 200, TC8),
    ({"query": "P(n0, Y)", "engine": "semi-naive"}, 200,
     from_node(TC8, "n0")),
    ({"query": "P(X, Y)", "engine": "semi-naive"}, 200, TC8),
    ({"query": "P(X, Y)", "engine": "naive"}, 200, TC8),
    ({"query": "P(n0, Y)", "engine": "top-down"}, 200,
     from_node(TC8, "n0")),
    ({"query": "A(n0, Y)"}, 200, {("n0", "n1")}),  # EDB path
    # repeat: served by the answer cache
    ({"query": "P(X, Y)", "engine": "semi-naive"}, 200, TC8),
]

#: one request of every family-owning shape (with the /facts batch and
#: the async job in :func:`lint`): each must answer its status
LINT_DRIVE = [
    ({"query": "P(n0, Y)"}, 200, None),                      # compiled
    ({"query": "P(X, Y)", "engine": "semi-naive"}, 200, None),
    ({"query": "P(n0, Y)", "engine": "top-down"}, 200, None),
    ({"query": "P(n0, Y)"}, 200, None),                      # cache hit
    ({"query": "P(n2, Y)", "max_rows": 1}, 200, None),       # truncated
    ({"query": "P(n3, Y)", "timeout_s": 0}, 408, None),      # timeout
]

#: documented families that only a race or a failure can write —
#: tolerated as absent from the driven exposure, never as stale docs
ALLOWED_TIMING = {
    "repro_queries_rejected_total",   # needs a 429 under contention
    "repro_queries_cancelled_total",  # needs a mid-evaluation cancel
    "repro_query_errors_total",       # needs a genuine engine failure
}

#: documented families only the numpy kernel writes — tolerated as
#: absent when numpy is not installed, required when it is
NUMPY_ONLY = {"repro_vector_batches_total", "repro_vector_rows_total"}


def session(workdir: str, checks: list) -> None:
    with Server(workdir, "session", chain_program(TC, 8),
                "--trace-sample", "1.0", "--exemplars",
                log=True) as server:
        bodies = [body for _, body in run_table(server, checks, SESSION)]
        ids = [body["query_id"] for body in bodies]
        checks.append(("distinct query ids", len(set(ids)), len(SESSION)))
        checks.append(("healthz queries_served",
                       server.get("/healthz")["queries_served"],
                       len(SESSION)))

        # /metrics reconciles exactly with the per-response stats
        per_engine: dict = defaultdict(Counter)
        vector: Counter = Counter()
        backends = set()
        for body in bodies:
            stats = body["stats"]
            bucket = per_engine[body["engine"]]
            bucket["queries"] += 1
            for field in ("rounds", "probes", "derived"):
                bucket[field] += stats[field]
            for field in ("vector_batches", "vector_rows"):
                vector[field] += stats[field]
            if stats["vector_batches"]:
                backends.add(stats["backend"])
        table = []
        for engine, bucket in per_engine.items():
            table.append(("repro_queries_total",
                          {"engine": engine, "outcome": "ok"},
                          bucket["queries"]))
            table += [(f"repro_{field}_total", {"engine": engine},
                       bucket[field])
                      for field in ("rounds", "probes", "derived")]
        # every unique query's answers cross the boundary lazily and
        # the render forces the decode once; the cache-hit repeat
        # reuses the decoded set and moves neither counter
        unique = {json.dumps(document, sort_keys=True): answers
                  for document, _, answers in SESSION}
        lazy = sum(len(answers) for answers in unique.values())
        scrape = server.metrics()
        checks += scrape.check(table + [
            ("repro_relation_rows", {"relation": "A"}, 8),
            ("repro_symbols_total", {}, POSITIVE),
            ("repro_encoded_bytes_estimate", {}, POSITIVE),
            ("repro_answer_cache_hits_total", {}, 1),
            ("repro_answers_lazy_total", {}, lazy),
            ("repro_answers_decoded_total", {}, lazy),
            ("repro_decode_seconds_count", {}, len(unique)),
            ("repro_vector_batches_total", {}, vector["vector_batches"]),
            ("repro_vector_batches_total", {"backend": "numpy"},
             vector["vector_batches"]),
            ("repro_vector_rows_total", {}, vector["vector_rows"]),
        ])
        # with numpy the semi-naive runs certify for the kernel;
        # without it every round runs the python loop
        checks += [("stats vector_batches > 0",
                    vector["vector_batches"] > 0, HAVE_NUMPY),
                   ("backends of vectorised responses",
                    backends - {"numpy"}, set())]

        # one log line per query, in response order
        logged = [line["query_id"] for line in server.log_lines()
                  if line.get("event") == "query"]
        checks += [("query log lines", len(logged), len(SESSION)),
                   ("distinct logged query ids", len(set(logged)),
                    len(logged)),
                   ("logged ids in response order", logged, ids)]

        # at --trace-sample 1.0 every id retrieves a full trace
        report = server.get("/debug/traces")
        checks += [("traces captured_total", report["captured_total"],
                    len(SESSION)),
                   ("traces sampled_total", report["sampled_total"],
                    len(SESSION)),
                   ("traces forced_total", report["forced_total"], 0),
                   ("traces slow_total", report["slow_total"], 0)]
        # ... and names the labels the envelope's stats carry, as the
        # query's log line does
        lines = {line["query_id"]: line for line in server.log_lines()
                 if line.get("event") == "query"}
        for body in bodies:
            query_id, stats = body["query_id"], body["stats"]
            document = server.get(f"/debug/traces/{query_id}")
            phases = [span["name"] for span in document["phases"]]
            checks.append((f"trace {query_id} has engine phase and trace",
                           "engine" in phases and bool(document["trace"]),
                           True))
            line = lines.get(query_id, {})
            checks.append((
                f"{query_id} labels in trace and log line",
                [document["engine"], document["formula_class"]]
                + [line.get(name) for name in ("engine", "formula_class",
                                               "strategy", "backend")],
                [body["engine"], stats["formula_class"]] * 2
                + [stats["strategy"], stats["backend"]]))
        repeat = server.get(f"/debug/traces/{ids[-1]}")
        checks.append(("cache-hit repeat trace meta cache_hit",
                       bool(repeat["trace"]["meta"].get("cache_hit")),
                       True))
        # the latency exemplars name this session's ids; follow one
        # through the log and the trace too
        exemplar_ids = {
            labels["query_id"]
            for (name, _), (labels, _) in scrape.exemplars.items()
            if name == "repro_query_duration_seconds_bucket"}
        in_session = Pred("a non-empty subset of the session's ids",
                          lambda found: bool(found) and found <= set(ids))
        checks.append(("latency exemplar ids", exemplar_ids, in_session))
        if in_session.test(exemplar_ids):
            chosen = min(exemplar_ids)
            checks += [(f"exemplar {chosen} logged", chosen in logged, True),
                       (f"exemplar {chosen} trace query_id",
                        server.get(f"/debug/traces/{chosen}")["query_id"],
                        chosen)]

        lint(server, checks)
        server.stop(checks)


def documented_families() -> set[str]:
    """Family names in the markdown tables (rows starting '|')."""
    names: set[str] = set()
    with open(DOC, encoding="utf-8") as handle:
        for line in handle:
            if line.lstrip().startswith("|"):
                names.update(re.findall(r"`(repro_[a-z0-9_]+)`", line))
    return names


def documented_labels() -> dict[str, set[str]]:
    """Label names per family, from every markdown table with a
    ``labels`` column (``—`` documents none)."""
    labels: dict[str, set[str]] = {}
    column = None
    with open(DOC, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("|"):
                column = None  # a table ended
                continue
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if column is None:  # the header row
                column = cells.index("labels") if "labels" in cells else -1
            elif column >= 0 and not cells[0].startswith("-"):
                for name in re.findall(r"`(repro_[a-z0-9_]+)`", cells[0]):
                    labels[name] = set(re.findall(r"`([a-z_]+)`",
                                                  cells[column]))
    return labels


def documented_log_fields() -> dict[str, set[str]]:
    """The ``query`` event's fields per line kind (``success``,
    ``failure``), from the field table of observability.md's
    "Structured query logs" section."""
    with open(DOC, encoding="utf-8") as handle:
        section = handle.read().split("## Structured query logs", 1)[1]
    section = section.split("\n## ", 1)[0]
    fields: dict[str, set[str]] = {"success": set(), "failure": set()}
    for name, on in re.findall(r"^\| `([a-z_]+)` \| (both|success|failure) \|",
                               section, re.MULTILINE):
        for kind in (("success", "failure") if on == "both" else (on,)):
            fields[kind].add(name)
    return fields


def lint(server: Server, checks: list) -> None:
    """Every exposed family is documented in observability.md, and
    every documented one is exposed once each family-owning shape ran
    (families are declared on first write).  Every ``query`` log line
    carries exactly the fields the doc's table gives its kind."""
    documented = documented_families()
    require(checks, "families documented in observability.md",
            len(documented), Pred("> 30", lambda count: count > 30))
    run_table(server, checks, LINT_DRIVE)
    run_table(server, checks, [({"add": {"A": [["n8", "n9"]]}}, 200, None)],
              path="/facts")
    status, job, _ = server.request("POST", "/query",
                                    {"query": "P(n0, Y)", "mode": "async"})
    require(checks, "async submit status", status, 202)
    final = poll(server, job["status_url"], ("queued", "running"), 30, 0.02)
    checks.append(("async job state", final["state"], "done"))
    scrape = server.metrics()
    exposed = scrape.families
    tolerated = ALLOWED_TIMING | (set() if HAVE_NUMPY else NUMPY_ONLY)
    checks += [
        ("exposed but undocumented families", sorted(exposed - documented),
         []),
        ("documented but never exposed families",
         sorted(documented - exposed - tolerated), []),
        ("ALLOWED_TIMING names not documented",
         sorted(ALLOWED_TIMING - documented), []),
    ]
    # every exposed series of a family carries exactly the label names
    # its row documents (a histogram's ``le`` aside)
    labelled = documented_labels()
    require(checks, "families with a documented labels column",
            len(labelled), Pred("> 20", lambda count: count > 20))
    series: dict = defaultdict(set)
    for sample, pairs in scrape.samples:
        family = (sample if sample in exposed
                  else re.sub(r"_(bucket|sum|count)$", "", sample))
        series[family].add(frozenset(name for name, _ in pairs
                                     if name != "le"))
    checks.append(("exposed label names off the documented ones",
                   sorted((family, sorted(map(sorted, series[family])),
                           sorted(names))
                          for family, names in labelled.items()
                          if family in series
                          and series[family] != {frozenset(names)}), []))
    fields = documented_log_fields()
    require(checks, "query log fields documented",
            sorted(map(len, fields.values())),
            Pred("> 5 per kind", lambda counts: counts[0] > 5))
    kinds: Counter = Counter()
    off: list = []
    for line in server.log_lines():
        if line.get("event") != "query":
            continue
        kind = ("success" if line.get("outcome") in ("ok", "truncated")
                else "failure")
        kinds[kind] += 1
        if set(line) != fields[kind]:
            off.append((line.get("query_id"), kind,
                        sorted(set(line) ^ fields[kind])))
    checks += [("query log lines off the documented fields", off, []),
               ("query log lines linted (success, failure)",
                (kinds["success"], kinds["failure"]),
                Pred("at least one of each",
                     lambda counts: min(counts) > 0))]


# -- mixed load and contention ------------------------------------------------

THREADS = 16
EDGES40 = {(f"n{i}", f"n{i + 1}") for i in range(40)}
P40 = closure(40)
#: Q over A = B = the chain: one A step in front and one B step behind
#: per recursion level on top of the B exit, so Q(ni, nj) iff j - i is odd
Q40 = {(x, y) for x, y in P40 if (int(y[1:]) - int(x[1:])) % 2}

MIXED_PROGRAM = chain_program(
    TC + ["Q(x, y) :- A(x, z), Q(z, u), B(u, y).",   # class A1
          "Q(x, y) :- B(x, y).",
          "V(x, y) :- A(x, y)."]                      # non-recursive view
    + [f"B({x}, {y})." for x, y in sorted(EDGES40)], 40)

#: the per-thread request mix: (document, answers, or None when the
#: request must not complete normally)
MIXED_MIX = [
    ({"query": "P(n0, Y)"}, from_node(P40, "n0")),
    ({"query": "P(X, Y)", "engine": "semi-naive"}, P40),
    ({"query": "Q(X, Y)", "engine": "naive"}, Q40),
    ({"query": "P(n0, Y)", "engine": "top-down"}, from_node(P40, "n0")),
    ({"query": "V(X, Y)"}, EDGES40),
    ({"query": "A(n0, Y)"}, {("n0", "n1")}),
    # row budget: a shape asked *only* with the budget, so the
    # (never-cached) truncated evaluation happens every time
    ({"query": "P(n1, Y)", "max_rows": 1}, None),
    # zero budget: again a dedicated shape, so no cache hit can
    # short-circuit the deadline
    ({"query": "Q(n0, Y)", "timeout_s": 0}, None),
]


def mixed_load(workdir: str, checks: list) -> None:
    with Server(workdir, "mixed", MIXED_PROGRAM, "--trace-sample", "0.5",
                "--trace-buffer", "32") as server:
        responses: list = []
        lock = threading.Lock()

        def client(seed: int) -> None:
            local = []
            for offset in range(len(MIXED_MIX)):
                document, answers = MIXED_MIX[(seed + offset)
                                              % len(MIXED_MIX)]
                # retry rejections so the deliberate outcomes always
                # land; every attempt is tallied and must reconcile
                for _ in range(200):
                    status, body, _ = server.request("POST", "/query",
                                                     document)
                    local.append((status, body, answers))
                    if status != 429:
                        break
                    time.sleep(0.02)
            with lock:
                responses.extend(local)

        in_threads(client, range(THREADS))
        tally: Counter = Counter()
        wrong = []
        for status, body, answers in responses:
            if status != 200:
                tally[status] += 1
            elif body["outcome"] == "truncated":
                tally["truncated"] += 1
                if not (1 <= len(rows(body)) and rows(body) < P40):
                    wrong.append(f"{body['query']} truncated to "
                                 f"{len(rows(body))} rows")
            else:
                tally["ok"] += 1
                if answers is not None and rows(body) != answers:
                    wrong.append(f"{body['query']}: {len(rows(body))} "
                                 f"rows, expected {len(answers)}")
        admitted = tally["ok"] + tally["truncated"]
        scrape = server.metrics()
        health = server.get("/healthz")
        checks += scrape.check([
            ("repro_queries_total", {"outcome": "ok"}, tally["ok"]),
            ("repro_queries_total", {"outcome": "truncated"},
             tally["truncated"]),
            ("repro_queries_total", {"outcome": "timeout"}, tally[408]),
            ("repro_queries_timed_out_total", {}, tally[408]),
            ("repro_queries_rejected_total", {}, tally[429]),
            ("repro_queries_total", {"outcome": "error"}, 0),
            ("repro_query_errors_total", {}, 0),
            ("repro_inflight_queries", {}, 0),    # quiesced
        ])
        checks += [
            ("statuses other than 200/408/429",
             {s: n for s, n in tally.items()
              if s not in ("ok", "truncated", 408, 429)}, {}),
            ("responses with wrong answers", wrong, []),
            # the deliberate outcomes land once per thread
            ("truncated responses", tally["truncated"], THREADS),
            ("408 responses", tally[408], THREADS),
            ("healthz queries_served", health["queries_served"], admitted),
            ("healthz admitted_total", health["admitted_total"],
             admitted + tally[408]),
            ("healthz rejected_total", health["rejected_total"],
             tally[429]),
            ("healthz inflight", health["inflight"], 0),
        ]
        # the flight recorder reconciles exactly under concurrency;
        # capture finalises before the response is written, so with
        # every client drained the registry counter agrees too
        report = server.get("/debug/traces")
        captured = report["captured_total"]
        retained = min(captured, 32)
        checks += [
            ("captured = forced + sampled + slow", captured,
             report["forced_total"] + report["sampled_total"]
             + report["slow_total"]),
            ("captured at --trace-sample 0.5", captured, POSITIVE),
            ("traces held by the ring (capacity 32)",
             len(report["traces"]), retained),
            ("recorder retained", report["retained"], retained),
            ("recorder evicted_total", report["evicted_total"],
             captured - retained),
            ("repro_traces_captured_total",
             scrape.series_sum("repro_traces_captured_total"), captured),
        ]
        server.stop(checks)


def contention(workdir: str, checks: list) -> None:
    with Server(workdir, "contention", MIXED_PROGRAM, "--max-inflight",
                "1", "--trace-sample", "0", log=True) as server:
        results: list = []

        for _ in range(50):
            barrier = threading.Barrier(4)

            def fire(_) -> None:
                barrier.wait()
                status, _, headers = server.request(
                    "POST", "/query", {"query": "P(X, Y)"})
                results.append((status, "Retry-After" in headers))

            in_threads(fire, range(4))
            if any(status == 429 for status, _ in results):
                break
        rejected = sum(status == 429 for status, _ in results)
        report = server.get("/debug/traces")
        checks += [
            ("429s from simultaneous load at --max-inflight 1", rejected,
             POSITIVE),
            ("5xx under contention",
             sum(status >= 500 for status, _ in results), 0),
            ("429s without Retry-After",
             sum(status == 429 and not retry for status, retry in results),
             0),
            ("repro_queries_rejected_total",
             server.metrics().series_sum("repro_queries_rejected_total"),
             rejected),
            # --trace-sample 0 and no slow threshold: fully inert
            ("disabled recorder captured_total", report["captured_total"],
             0),
            ("disabled recorder traces", report["traces"], []),
        ]
        server.stop(checks)


# -- jobs and drain -----------------------------------------------------------

JOBS_CHAIN = 300  # nodes n0 … n300; the naive closure takes seconds

JOBS_PROGRAM = chain_program(
    TC + [
        # class D: both recursive-atom variables are free of the head,
        # so the recursion is bounded (rank <= 2)
        "Dp(x, y) :- Ca(x, m), Cb(y, n), Dp(x1, y1).",
        "Dp(x, y) :- E0(x, y).",
        "Ca(c1, m1). Ca(c2, m2). Cb(c3, n1). Cb(c4, n2).",
        "E0(c1, c3). E0(c2, c4)."],
    JOBS_CHAIN)

#: the fast sync path that must flow while the slow job runs
FAST_MIX = [
    ({"query": "A(n0, Y)"}, 200, {("n0", "n1")}),          # EDB lookup
    # class D, bounded at rank 2: one recursion round closes the cross
    # product dom(Ca) x dom(Cb) over the exit tuples
    ({"query": "Dp(X, Y)"}, 200,
     {("c1", "c3"), ("c1", "c4"), ("c2", "c3"), ("c2", "c4")}),
    ({"query": "P(n299, Y)"}, 200, {("n299", "n300")}),    # bound probe
]

SLOW_JOB = {"query": "P(X, Y)", "engine": "naive"}


def jobs(workdir: str, checks: list) -> None:
    with Server(workdir, "jobs", JOBS_PROGRAM, "--job-workers",
                "1") as server:
        status, submitted, _ = server.request(
            "POST", "/query", {**SLOW_JOB, "mode": "async"})
        require(checks, "async submit status", status, 202)
        job_url = f"/jobs/{submitted['id']}"
        picked_up = poll(server, job_url, ("queued",), 30, 0.01)
        checks.append(("job state once picked up (must outlast the "
                       "sync burst)", picked_up["state"], "running"))
        # hang up on a poll mid-run: the client's connection dying
        # must not touch the evaluation
        with socket.create_connection(server.address, timeout=10) as raw:
            raw.sendall(f"GET {job_url} HTTP/1.1\r\nHost: smoke\r\n\r\n"
                        .encode("ascii"))
            hang_up(raw)
        # one slow job must not queue the fast path
        results = run_table(server, checks, FAST_MIX * 4)
        sync_ok = sum(status == 200 for status, _ in results)

        final = poll(server, job_url, ("queued", "running"), 120, 0.05)
        require(checks, "job final state", final["state"], "done")
        checks.append(("done job rounds", final["progress"]["rounds"],
                       Pred(f">= {JOBS_CHAIN}",
                            lambda rounds: rounds >= JOBS_CHAIN)))
        status, result, _ = server.request("GET", job_url + "/result")
        checks += [("result status", status, 200),
                   ("result count", result.get("count"),
                    JOBS_CHAIN * (JOBS_CHAIN + 1) // 2),
                   ("result outcome", result.get("outcome"), "ok"),
                   ("result epoch", result.get("epoch"), 0)]

        # client ledger vs /healthz vs /metrics, exactly
        health = server.get("/healthz")
        ledger = health["jobs"]
        checks += [(f"healthz jobs.{key}", ledger[key], want)
                   for key, want in (("queued", 0), ("running", 0),
                                     ("submitted_total", 1),
                                     ("finished_total", 1))]
        checks += [
            ("healthz jobs.outcomes done", ledger["outcomes"]["done"], 1),
            ("healthz jobs.outcomes total",
             sum(ledger["outcomes"].values()), 1),
            # async jobs never count as served sync queries
            ("healthz queries_served", health["queries_served"], sync_ok),
        ]
        checks += server.metrics().check([
            ("repro_jobs_submitted_total", {}, 1),
            ("repro_jobs_total", {"outcome": "done"}, 1),
            ("repro_jobs_total", {}, 1),
            ("repro_job_queue_depth", {}, 0),
            ("repro_jobs_running", {}, 0),
            ("repro_job_run_seconds_count", {}, 1),
            ("repro_job_queue_wait_seconds_count", {}, 1),
            ("repro_queries_rejected_total", {}, 0),
        ])
        server.stop(checks)


def drain(workdir: str, checks: list) -> None:
    with Server(workdir, "drain", JOBS_PROGRAM, "--job-workers", "1",
                "--drain-grace", "2", log=True) as server:
        for index in range(3):
            status, _, _ = server.request("POST", "/jobs", SLOW_JOB)
            require(checks, f"submit {index} status", status, 202)
        # the single worker picks up the first job, two stay queued
        time.sleep(1.0)
        last = server.stop(checks)
        checks += [
            ("server_shutdown jobs_submitted", last.get("jobs_submitted"),
             3),
            ("server_shutdown jobs_finished", last.get("jobs_finished"), 3),
            # the queued two are always cancelled; the running one
            # finished inside the grace or was cancelled at a round
            # boundary — both are clean
            ("server_shutdown jobs_cancelled", last.get("jobs_cancelled"),
             Pred("in [2, 3]", lambda n: n is not None and 2 <= n <= 3)),
        ]


# -- dropped mid-stream -------------------------------------------------------

DROP_CHAIN = 700  # full closure: 245,350 rows, several MB of JSON
BIG_ANSWER = {"query": "P(X, Y)", "engine": "semi-naive"}


def dropped_mid_stream(workdir: str, checks: list) -> None:
    with Server(workdir, "dropped", chain_program(TC, DROP_CHAIN),
                log=True) as server:
        body = json.dumps(BIG_ANSWER).encode("utf-8")
        with socket.create_connection(server.address, timeout=120) as raw:
            raw.sendall(b"POST /query HTTP/1.1\r\nHost: smoke\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            head = b""
            while b"\r\n" not in head:
                chunk = raw.recv(4096)
                if not chunk:
                    break
                head += chunk
            hang_up(raw)
        checks.append(("dropped request status line",
                       head.split(b"\r\n", 1)[0], b"HTTP/1.1 200 OK"))
        last = DROP_CHAIN - 1
        run_table(server, checks, [
            ({"query": f"P(n{last}, Y)"}, 200,
             {(f"n{last}", f"n{DROP_CHAIN}")})])
        health = server.get("/healthz")
        # the dropped request and the follow-up, each exactly once
        checks += [
            ("healthz inflight", health["inflight"], 0),
            ("healthz queries_served", health["queries_served"], 2),
        ] + server.metrics().check([
            ("repro_queries_total", {"outcome": "ok"}, 2)])
        server.stop(checks)


# -- driver -------------------------------------------------------------------

SCENARIOS = [("session", session), ("mixed load", mixed_load),
             ("contention", contention), ("jobs", jobs), ("drain", drain),
             ("dropped mid-stream", dropped_mid_stream)]


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, scenario in SCENARIOS:
            checks: list = []
            started = time.perf_counter()
            try:
                scenario(workdir, checks)
            except Aborted:
                pass
            except Exception as error:
                traceback.print_exc()
                checks.append(("scenario ran to completion",
                               f"{type(error).__name__}: {error}", None))
            failed = [(label, observed, expected)
                      for label, observed, expected in checks
                      if not holds(observed, expected)]
            for label, observed, expected in failed:
                print(f"FAIL {name}: {label}: observed "
                      f"{repr(observed)[:300]}, expected "
                      f"{repr(expected)[:300]}", file=sys.stderr)
            print(f"{name}: {len(checks) - len(failed)}/{len(checks)} "
                  f"checks hold ({time.perf_counter() - started:.1f} s)")
            failures += len(failed)
    if failures:
        print(f"wire smoke: {failures} failed check(s)", file=sys.stderr)
        return 1
    print("wire smoke: every scenario holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
