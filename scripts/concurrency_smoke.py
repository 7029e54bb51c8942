"""CI smoke: concurrent clients against ``repro serve``, reconciled.

End-to-end over a real subprocess and real sockets, in two phases:

1. **mixed load** — 16 client threads each run a scripted request mix
   (five engines; recursive classes A1 and A5, a non-recursive view,
   an EDB lookup; one deliberate row-limit truncation and one
   deliberate zero-budget timeout per pass) against a server with the
   default admission gate.  Assert **zero 5xx** across every response,
   correct answers on every 200, and that the admission/outcome
   counters in ``GET /metrics`` — ``repro_queries_total`` by outcome,
   ``repro_queries_rejected_total``, ``repro_queries_timed_out_total``,
   the in-flight gauge — reconcile *exactly* with the per-response
   tallies the clients kept.  The server runs with
   ``--trace-sample 0.5 --trace-buffer 32`` so the flight recorder
   samples and evicts under real concurrency; its identity
   ``captured = forced + sampled + slow`` and the ring bound are
   asserted over the wire;
2. **forced contention** — a fresh server with ``--max-inflight 1``
   and a disabled recorder (``--trace-sample 0``), which must stay
   empty — zero captures, no retained traces;
   four barrier-synchronised clients fire simultaneous free-closure
   queries until at least one is turned away, then the client-side 429
   count must equal ``repro_queries_rejected_total`` exactly and every
   429 must carry ``Retry-After``.  Finally SIGTERM must produce a
   clean exit (code 0) and a terminal ``server_shutdown`` log line
   with ``drained: true``.

Exits non-zero on the first violation.

Usage::

    PYTHONPATH=src python scripts/concurrency_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.metrics import parse_prometheus_text  # noqa: E402

CHAIN = 40  # nodes n0 … n40
THREADS = 16

A_EDGES = [(f"n{i}", f"n{i + 1}") for i in range(CHAIN)]
B_EDGES = A_EDGES


def _program_text() -> str:
    lines = [
        "P(x, y) :- A(x, z), P(z, y).",   # class A5 (transitive closure)
        "P(x, y) :- A(x, y).",
        "Q(x, y) :- A(x, z), Q(z, u), B(u, y).",   # class A1
        "Q(x, y) :- B(x, y).",
        "V(x, y) :- A(x, y).",            # non-recursive view
    ]
    lines += [f"A({x}, {y})." for x, y in A_EDGES]
    lines += [f"B({x}, {y})." for x, y in B_EDGES]
    return "\n".join(lines) + "\n"


def _closure(edges) -> frozenset:
    reach = set(edges)
    while True:
        grown = {(x, w) for (x, y) in reach
                 for (z, w) in reach if y == z} - reach
        if not grown:
            return frozenset(reach)
        reach |= grown


def _q_fixpoint() -> frozenset:
    total = set(B_EDGES)
    while True:
        grown = {(x, y)
                 for (x, z) in A_EDGES
                 for (z2, u) in total if z2 == z
                 for (u2, y) in B_EDGES if u2 == u} - total
        if not grown:
            return frozenset(total)
        total |= grown


P_CLOSURE = _closure(A_EDGES)
Q_CLOSURE = _q_fixpoint()

#: the per-thread request mix: (document, expected full answer set or
#: None when the request must not complete normally)
def _request_mix():
    return [
        ({"query": "P(n0, Y)"},
         {p for p in P_CLOSURE if p[0] == "n0"}),
        ({"query": "P(X, Y)", "engine": "semi-naive"}, P_CLOSURE),
        ({"query": "Q(X, Y)", "engine": "naive"}, Q_CLOSURE),
        ({"query": "P(n0, Y)", "engine": "top-down"},
         {p for p in P_CLOSURE if p[0] == "n0"}),
        ({"query": "V(X, Y)"}, set(A_EDGES)),
        ({"query": "A(n0, Y)"}, {("n0", "n1")}),
        # row budget: a query shape asked *only* with the budget, so
        # the (never-cached) truncated evaluation happens every time
        ({"query": "P(n1, Y)", "max_rows": 1}, None),
        # zero budget: again a dedicated shape so no cache hit can
        # short-circuit the deadline
        ({"query": "Q(n0, Y)", "timeout_s": 0}, None),
    ]


def _post(base: str, document: dict):
    """(status, body, headers) without raising on HTTP errors.

    Transient connection resets (the OS dropping a connect under a
    thundering herd) are retried — they are a client/kernel artefact,
    not a server response, and the reconciliation counts responses.
    """
    request = urllib.request.Request(
        base + "/query", json.dumps(document).encode("utf-8"),
        {"Content-Type": "application/json"})
    for attempt in range(5):
        try:
            with urllib.request.urlopen(request,
                                        timeout=60) as response:
                return response.status, json.loads(response.read()), \
                    dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), \
                dict(error.headers)
        except (ConnectionResetError, ConnectionRefusedError):
            if attempt == 4:
                raise
            time.sleep(0.05 * (attempt + 1))


def _get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return json.loads(response.read())


def _metrics(base: str) -> dict:
    with urllib.request.urlopen(base + "/metrics",
                                timeout=60) as response:
        return parse_prometheus_text(response.read().decode("utf-8"))


def _series_sum(samples: dict, name: str, **labels: str) -> float:
    want = set(labels.items())
    return sum(v for (n, pairs), v in samples.items()
               if n == name and want <= set(pairs))


def _boot(program: str, *args: str, log_path: str | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro", "serve", program,
            "--port", "0", *args]
    if log_path is not None:
        argv += ["--log-json", log_path]
    process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               env=env)
    banner = process.stdout.readline().strip()
    assert banner.startswith("serving on http://"), banner
    return process, banner.split("serving on ", 1)[1]


def _phase_mixed_load(base: str) -> int:
    failures = 0
    responses: list[tuple[int, dict, object]] = []
    lock = threading.Lock()

    def client(seed: int) -> None:
        local = []
        mix = _request_mix()
        for offset in range(len(mix)):
            document, expected = mix[(seed + offset) % len(mix)]
            # retry rejected requests so the deliberate-outcome
            # requests (truncation, timeout) always land; every
            # attempt is tallied and must reconcile
            for _ in range(200):
                status, body, _ = _post(base, document)
                local.append((status, body, expected))
                if status != 429:
                    break
                time.sleep(0.02)
        with lock:
            responses.extend(local)

    pool = [threading.Thread(target=client, args=(i,))
            for i in range(THREADS)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()

    tally = {"ok": 0, "truncated": 0, 408: 0, 429: 0}
    for status, body, expected in responses:
        if status >= 500:
            print(f"5xx response: {status} {body}", file=sys.stderr)
            failures += 1
        elif status == 200:
            outcome = body["outcome"]
            tally[outcome if outcome in tally else "ok"] += 1
            if outcome == "truncated":
                answers = {tuple(r) for r in body["answers"]}
                if not (answers < P_CLOSURE and len(answers) >= 1):
                    print("truncated answers are not a proper "
                          "non-empty subset", file=sys.stderr)
                    failures += 1
            elif expected is not None:
                answers = {tuple(r) for r in body["answers"]}
                if answers != expected:
                    print(f"{body['query']}: wrong answers "
                          f"({len(answers)} rows, expected "
                          f"{len(expected)})", file=sys.stderr)
                    failures += 1
        elif status in (408, 429):
            tally[status] += 1
        else:
            print(f"unexpected status {status}: {body}",
                  file=sys.stderr)
            failures += 1

    # the deliberate outcomes landed once per thread per pass
    if tally["truncated"] != THREADS:
        print(f"expected {THREADS} truncated responses, saw "
              f"{tally['truncated']}", file=sys.stderr)
        failures += 1
    if tally[408] != THREADS:
        print(f"expected {THREADS} timeouts (408), saw {tally[408]}",
              file=sys.stderr)
        failures += 1

    # -- /metrics must reconcile exactly with the client tallies ------
    samples = _metrics(base)
    checks = [
        ("repro_queries_total{outcome=ok}",
         _series_sum(samples, "repro_queries_total", outcome="ok"),
         tally["ok"]),
        ("repro_queries_total{outcome=truncated}",
         _series_sum(samples, "repro_queries_total",
                     outcome="truncated"), tally["truncated"]),
        ("repro_queries_total{outcome=timeout}",
         _series_sum(samples, "repro_queries_total",
                     outcome="timeout"), tally[408]),
        ("repro_queries_timed_out_total",
         _series_sum(samples, "repro_queries_timed_out_total"),
         tally[408]),
        ("repro_queries_rejected_total",
         _series_sum(samples, "repro_queries_rejected_total"),
         tally[429]),
        ("repro_queries_total{outcome=error}",
         _series_sum(samples, "repro_queries_total",
                     outcome="error"), 0),
        ("repro_query_errors_total",
         _series_sum(samples, "repro_query_errors_total"), 0),
        ("repro_inflight_queries (quiesced)",
         _series_sum(samples, "repro_inflight_queries"), 0),
    ]
    for name, got, expected in checks:
        if got != expected:
            print(f"{name}: metrics say {got}, responses sum to "
                  f"{expected}", file=sys.stderr)
            failures += 1

    health = _get_json(base, "/healthz")
    reconciled = [
        ("healthz.queries_served", health["queries_served"],
         tally["ok"] + tally["truncated"]),
        ("healthz.admitted_total", health["admitted_total"],
         tally["ok"] + tally["truncated"] + tally[408]),
        ("healthz.rejected_total", health["rejected_total"],
         tally[429]),
        ("healthz.inflight", health["inflight"], 0),
    ]
    for name, got, expected in reconciled:
        if got != expected:
            print(f"{name}: {got} != {expected}", file=sys.stderr)
            failures += 1
    # -- flight recorder reconciles exactly under concurrency --------
    report = _get_json(base, "/debug/traces")
    identity = (report["forced_total"] + report["sampled_total"]
                + report["slow_total"])
    if report["captured_total"] != identity:
        print(f"recorder identity broken: captured "
              f"{report['captured_total']} != forced+sampled+slow "
              f"{identity}", file=sys.stderr)
        failures += 1
    if report["captured_total"] == 0:
        print("sampling at 0.5 captured nothing", file=sys.stderr)
        failures += 1
    retained = min(report["captured_total"], 32)
    if len(report["traces"]) != retained or \
            report["retained"] != retained:
        print(f"ring holds {report['retained']} traces, expected "
              f"{retained} (capacity 32)", file=sys.stderr)
        failures += 1
    if report["evicted_total"] != report["captured_total"] - retained:
        print(f"evicted_total {report['evicted_total']} != captured "
              f"- retained", file=sys.stderr)
        failures += 1
    # capture finalises before the response is written, so with every
    # client drained the registry counter agrees exactly
    metered = _series_sum(samples, "repro_traces_captured_total")
    if metered != report["captured_total"]:
        print(f"repro_traces_captured_total {metered} != recorder's "
              f"own count {report['captured_total']}", file=sys.stderr)
        failures += 1

    total = len(responses)
    print(f"phase 1: {total} responses from {THREADS} threads — "
          f"{tally['ok']} ok, {tally['truncated']} truncated, "
          f"{tally[408]} timed out, {tally[429]} rejected; "
          f"zero 5xx; /metrics reconcile exactly; recorder captured "
          f"{report['captured_total']} ({report['retained']} "
          f"retained) with the identity exact")
    return failures


def _phase_contention(base: str) -> int:
    failures = 0
    rejected = 0
    fivehundreds = 0
    retry_after_missing = 0
    for _ in range(50):
        barrier = threading.Barrier(4)
        results: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def fire() -> None:
            nonlocal retry_after_missing
            barrier.wait()
            status, body, headers = _post(base, {"query": "P(X, Y)"})
            if status == 429 and "Retry-After" not in headers:
                with lock:
                    retry_after_missing += 1
            with lock:
                results.append((status, body))

        pool = [threading.Thread(target=fire) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        rejected += sum(1 for s, _ in results if s == 429)
        fivehundreds += sum(1 for s, _ in results if s >= 500)
        if rejected:
            break
    if rejected == 0:
        print("max-inflight 1 never produced a 429 under "
              "simultaneous load", file=sys.stderr)
        failures += 1
    if fivehundreds:
        print(f"{fivehundreds} 5xx responses under contention",
              file=sys.stderr)
        failures += 1
    if retry_after_missing:
        print("429 without a Retry-After header", file=sys.stderr)
        failures += 1
    samples = _metrics(base)
    metered = _series_sum(samples, "repro_queries_rejected_total")
    if metered != rejected:
        print(f"repro_queries_rejected_total: metrics say {metered}, "
              f"clients saw {rejected}", file=sys.stderr)
        failures += 1
    # this server runs with --trace-sample 0 and no slow threshold:
    # the recorder must have stayed completely inert
    report = _get_json(base, "/debug/traces")
    if report["captured_total"] != 0 or report["traces"]:
        print(f"disabled recorder captured "
              f"{report['captured_total']} trace(s)", file=sys.stderr)
        failures += 1
    print(f"phase 2: forced contention rejected {rejected} "
          f"request(s), all with Retry-After, reconciled exactly; "
          f"disabled recorder stayed empty")
    return failures


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        program = os.path.join(workdir, "mixed.dl")
        with open(program, "w", encoding="utf-8") as handle:
            handle.write(_program_text())

        process, base = _boot(program, "--trace-sample", "0.5",
                              "--trace-buffer", "32")
        try:
            failures += _phase_mixed_load(base)
        finally:
            process.terminate()
            process.wait(timeout=30)

        log_path = os.path.join(workdir, "queries.jsonl")
        process, base = _boot(program, "--max-inflight", "1",
                              "--trace-sample", "0",
                              log_path=log_path)
        try:
            failures += _phase_contention(base)
        finally:
            process.terminate()
            process.wait(timeout=30)
        if process.returncode != 0:
            print(f"SIGTERM exit code {process.returncode}, "
                  f"expected 0", file=sys.stderr)
            failures += 1
        with open(log_path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle
                     if line.strip()]
        if not lines or lines[-1].get("event") != "server_shutdown":
            print("log does not end with a server_shutdown line",
                  file=sys.stderr)
            failures += 1
        elif not lines[-1].get("drained"):
            print("server_shutdown line reports drained=false",
                  file=sys.stderr)
            failures += 1

    if failures:
        print(f"concurrency smoke: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print("concurrency smoke: mixed concurrent load, forced "
          "contention and graceful shutdown all reconcile")
    return 0


if __name__ == "__main__":
    sys.exit(main())
