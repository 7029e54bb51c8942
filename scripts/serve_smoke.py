"""CI smoke: boot ``repro serve``, query it, reconcile ``/metrics``.

End-to-end over a real subprocess and real sockets:

1. write a transitive-closure program to a temp dir and start
   ``python -m repro serve`` on an ephemeral port (``--port 0``) with
   ``--log-json``;
2. run a scripted multi-query session over ``POST /query`` — several
   engines, bound and free query forms — collecting each response's
   per-query ``stats``;
3. assert ``GET /healthz`` is 200, and that the counters in
   ``GET /metrics`` (parsed with the registry's own minimal parser)
   reconcile *exactly* with the per-query stats sums: query counts
   per engine, ``repro_rounds_total``/``repro_probes_total``/
   ``repro_derived_total`` per engine, and the vectorised delta-loop
   counters ``repro_vector_batches_total{backend}`` /
   ``repro_vector_rows_total`` (equal to the summed per-response
   stats under the ``numpy`` backend label; non-zero when numpy is
   installed — the session's semi-naive queries certify for the
   kernel — and zero without it);
4. assert the structured log emitted exactly one line per query;
5. assert the three signals correlate on the query id: every
   response's ``query_id`` matches its log line, retrieves a full
   trace from ``GET /debug/traces/<id>`` (the server runs with
   ``--trace-sample 1.0``), and the latency histogram's exemplars
   (``--exemplars``) name ids from this session — one id is followed
   through all four places;
6. send SIGTERM and assert the graceful path: exit code 0 and a
   final ``server_shutdown`` log line with ``drained: true``.

Exits non-zero on the first violation.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import urllib.request
from collections import defaultdict

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.engine.vector import HAVE_NUMPY  # noqa: E402
from repro.metrics import parse_prometheus_text  # noqa: E402

CHAIN = 8  # nodes n0 … n8

#: the scripted session: (query, engine or None for the default)
SESSION = [
    ("P(n0, Y)", None),
    ("P(X, Y)", None),
    ("P(n0, Y)", "semi-naive"),
    ("P(X, Y)", "semi-naive"),
    ("P(X, Y)", "naive"),
    ("P(n0, Y)", "top-down"),
    ("A(n0, Y)", None),  # EDB path
    ("P(X, Y)", "semi-naive"),  # repeat: served by the answer cache
]


def _program_text() -> str:
    lines = ["P(x, y) :- A(x, z), P(z, y).", "P(x, y) :- A(x, y)."]
    lines += [f"A(n{i}, n{i + 1})." for i in range(CHAIN)]
    return "\n".join(lines) + "\n"


def _expected(query: str) -> set[tuple[str, str]]:
    closure = {(f"n{i}", f"n{j}")
               for i in range(CHAIN) for j in range(i + 1, CHAIN + 1)}
    if query == "P(n0, Y)":
        return {pair for pair in closure if pair[0] == "n0"}
    if query == "P(X, Y)":
        return closure
    if query == "A(n0, Y)":
        return {("n0", "n1")}
    raise AssertionError(query)


def _post(base: str, document: dict) -> dict:
    request = urllib.request.Request(
        base + "/query", json.dumps(document).encode("utf-8"),
        {"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200, response.status
        return json.loads(response.read())


def _get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        assert response.status == 200, (path, response.status)
        return json.loads(response.read())


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        program = os.path.join(workdir, "tc.dl")
        log_path = os.path.join(workdir, "queries.jsonl")
        with open(program, "w", encoding="utf-8") as handle:
            handle.write(_program_text())
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", program,
             "--port", "0", "--log-json", log_path,
             "--trace-sample", "1.0", "--exemplars"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving on http://"), banner
            base = banner.split("serving on ", 1)[1]

            # -- the scripted session ---------------------------------
            per_engine: dict[str, dict] = defaultdict(
                lambda: {"queries": 0, "rounds": 0, "probes": 0,
                         "derived": 0})
            query_ids: list[str] = []
            vector_sums = {"vector_batches": 0, "vector_rows": 0}
            vector_backends: set[str] = set()
            for query, engine in SESSION:
                document = {"query": query}
                if engine is not None:
                    document["engine"] = engine
                response = _post(base, document)
                answers = {tuple(row) for row in response["answers"]}
                if answers != _expected(query):
                    print(f"{query} [{engine}]: wrong answers "
                          f"({len(answers)} rows)", file=sys.stderr)
                    failures += 1
                query_ids.append(response["query_id"])
                bucket = per_engine[response["engine"]]
                bucket["queries"] += 1
                for field in ("rounds", "probes", "derived"):
                    bucket[field] += response["stats"][field]
                for field in vector_sums:
                    vector_sums[field] += response["stats"][field]
                if response["stats"]["vector_batches"]:
                    vector_backends.add(response["stats"]["backend"])
            if len(set(query_ids)) != len(SESSION):
                print("query_ids missing or not unique",
                      file=sys.stderr)
                failures += 1

            # -- health -----------------------------------------------
            with urllib.request.urlopen(base + "/healthz",
                                        timeout=30) as response:
                assert response.status == 200
                health = json.loads(response.read())
            if health["queries_served"] != len(SESSION):
                print(f"healthz served {health['queries_served']} != "
                      f"{len(SESSION)}", file=sys.stderr)
                failures += 1

            # -- metrics reconcile exactly with per-query stats -------
            exemplars: dict = {}
            with urllib.request.urlopen(base + "/metrics",
                                        timeout=30) as response:
                samples = parse_prometheus_text(
                    response.read().decode("utf-8"),
                    exemplars=exemplars)

            def series_sum(name: str, **labels: str) -> float:
                want = set(labels.items())
                return sum(v for (n, pairs), v in samples.items()
                           if n == name and want <= set(pairs))

            for engine, bucket in per_engine.items():
                checks = [
                    ("repro_queries_total",
                     series_sum("repro_queries_total", engine=engine,
                                outcome="ok"), bucket["queries"]),
                    ("repro_rounds_total",
                     series_sum("repro_rounds_total", engine=engine),
                     bucket["rounds"]),
                    ("repro_probes_total",
                     series_sum("repro_probes_total", engine=engine),
                     bucket["probes"]),
                    ("repro_derived_total",
                     series_sum("repro_derived_total", engine=engine),
                     bucket["derived"]),
                ]
                for name, got, expected in checks:
                    if got != expected:
                        print(f"{name}{{engine={engine}}}: metrics "
                              f"say {got}, stats sum to {expected}",
                              file=sys.stderr)
                        failures += 1
            if series_sum("repro_relation_rows",
                          relation="A") != CHAIN:
                print("repro_relation_rows{relation=A} wrong",
                      file=sys.stderr)
                failures += 1

            # -- dictionary-encoding telemetry ------------------------
            # the server's database interns every constant, so both
            # storage gauges must be present and positive
            for gauge in ("repro_symbols_total",
                          "repro_encoded_bytes_estimate"):
                if series_sum(gauge) <= 0:
                    print(f"{gauge} missing or zero in /metrics",
                          file=sys.stderr)
                    failures += 1
            # the repeated query in SESSION must have been served by
            # the cross-query answer cache, and the hit must surface
            # as the counter
            if series_sum("repro_answer_cache_hits_total") != 1:
                print("repro_answer_cache_hits_total != 1",
                      file=sys.stderr)
                failures += 1

            # -- lazy columnar decode reconciles exactly --------------
            # every unique query's answers cross the query boundary
            # still encoded (lazy), and the server's response render
            # is the only point that forces decode — so both counters
            # must equal the summed answer counts of the *unique*
            # queries, and the decode histogram must have exactly one
            # observation per unique query.  The cache-hit repeat
            # reuses the already-decoded set and contributes to
            # neither.
            unique = list(dict.fromkeys(SESSION))
            expected_lazy = sum(len(_expected(q)) for q, _ in unique)
            for name in ("repro_answers_lazy_total",
                         "repro_answers_decoded_total"):
                if series_sum(name) != expected_lazy:
                    print(f"{name}: metrics say {series_sum(name)}, "
                          f"unique-query answers sum to "
                          f"{expected_lazy}", file=sys.stderr)
                    failures += 1
            if series_sum("repro_decode_seconds_count") != len(unique):
                print("repro_decode_seconds_count != "
                      f"{len(unique)} unique queries", file=sys.stderr)
                failures += 1

            # -- vectorised delta-loop counters reconcile exactly -----
            # with numpy the session's semi-naive runs over the
            # TC program certify for the vector kernel, so
            # the backend counters must be non-zero AND equal the
            # per-response stats sums, all under backend="numpy";
            # without numpy every round runs the python loop and the
            # counters stay zero
            if (vector_sums["vector_batches"] > 0) != HAVE_NUMPY:
                print(f"vector_batches sum to "
                      f"{vector_sums['vector_batches']} with numpy "
                      f"{'installed' if HAVE_NUMPY else 'absent'}",
                      file=sys.stderr)
                failures += 1
            for name, field in (
                    ("repro_vector_batches_total", "vector_batches"),
                    ("repro_vector_rows_total", "vector_rows")):
                if series_sum(name) != vector_sums[field]:
                    print(f"{name}: metrics say {series_sum(name)}, "
                          f"stats sum to {vector_sums[field]}",
                          file=sys.stderr)
                    failures += 1
            if vector_backends - {"numpy"}:
                print(f"vectorised responses name backends "
                      f"{sorted(vector_backends)}, expected numpy",
                      file=sys.stderr)
                failures += 1
            labelled = series_sum("repro_vector_batches_total",
                                  backend="numpy")
            if labelled != vector_sums["vector_batches"]:
                print(f"repro_vector_batches_total{{backend=numpy}}: "
                      f"metrics say {labelled}, stats sum to "
                      f"{vector_sums['vector_batches']}",
                      file=sys.stderr)
                failures += 1

            # -- one structured log line per query --------------------
            with open(log_path, encoding="utf-8") as handle:
                lines = [json.loads(line) for line in handle
                         if line.strip()]
            query_lines = [line for line in lines
                           if line.get("event") == "query"]
            if len(query_lines) != len(SESSION):
                print(f"log has {len(query_lines)} query lines, "
                      f"expected {len(SESSION)}", file=sys.stderr)
                failures += 1
            if len({line["query_id"] for line in query_lines}) != len(
                    query_lines):
                print("duplicate query_id in log", file=sys.stderr)
                failures += 1

            # -- the three signals correlate on the query id ----------
            # each response's id matches its log line (both streams
            # are in request order — the smoke client is sequential)
            logged_ids = [line["query_id"] for line in query_lines]
            if logged_ids != query_ids:
                print("log query_ids do not match response order",
                      file=sys.stderr)
                failures += 1
            # at --trace-sample 1.0 every id retrieves a full trace
            report = _get_json(base, "/debug/traces")
            if not (report["captured_total"] == len(SESSION)
                    == report["sampled_total"]):
                print(f"recorder captured {report['captured_total']} "
                      f"(sampled {report['sampled_total']}), expected "
                      f"{len(SESSION)} sampled", file=sys.stderr)
                failures += 1
            if report["forced_total"] or report["slow_total"]:
                print("unexpected forced/slow captures",
                      file=sys.stderr)
                failures += 1
            for query_id in query_ids:
                document = _get_json(base,
                                     f"/debug/traces/{query_id}")
                phase_names = [span["name"]
                               for span in document["phases"]]
                if "engine" not in phase_names or not document["trace"]:
                    print(f"trace {query_id} lacks engine phase or "
                          f"engine trace", file=sys.stderr)
                    failures += 1
            # the repeated final query was served by the answer cache
            # and its trace says so
            repeat = _get_json(base, f"/debug/traces/{query_ids[-1]}")
            if not repeat["trace"]["meta"].get("cache_hit"):
                print("cache-hit repeat trace lacks cache_hit meta",
                      file=sys.stderr)
                failures += 1
            # exemplars on the latency histogram name this session's
            # ids (last-exemplar-per-bucket, so a subset survives)
            exemplar_ids = {
                labels["query_id"]
                for (name, _), (labels, _) in exemplars.items()
                if name == "repro_query_duration_seconds_bucket"}
            if not exemplar_ids:
                print("no exemplars on the latency histogram",
                      file=sys.stderr)
                failures += 1
            elif not exemplar_ids <= set(query_ids):
                print("exemplar ids outside this session",
                      file=sys.stderr)
                failures += 1
            else:
                # follow one id through all four signals explicitly
                chosen = sorted(exemplar_ids)[0]
                if not (chosen in logged_ids
                        and _get_json(base, f"/debug/traces/{chosen}")
                        ["query_id"] == chosen):
                    print(f"exemplar id {chosen} does not correlate",
                          file=sys.stderr)
                    failures += 1

            # -- graceful shutdown on SIGTERM -------------------------
            process.terminate()
            process.wait(timeout=30)
            if process.returncode != 0:
                print(f"SIGTERM exit code {process.returncode}, "
                      f"expected 0 (graceful)", file=sys.stderr)
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
        finally:
            if process.poll() is None:
                process.terminate()
                process.wait(timeout=30)

    if failures:
        print(f"serve smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"serve smoke: {len(SESSION)} queries across "
          f"{len(per_engine)} engines — answers, /healthz, /metrics, "
          f"the query log, traces and exemplars all reconcile on "
          f"the query id")
    return 0


if __name__ == "__main__":
    sys.exit(main())
