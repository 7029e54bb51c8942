"""The end-to-end benchmark: one command over ``repro serve`` and the
engines, with a traced per-layer breakdown.

Usage (from the repository root)::

    python benchmarks/e2e/run.py --seed 1 [--workload NAME]
        [--seconds 20] [--trace [0|1]] [--cold-starts 3]

Every workload runs in fresh child processes: ``--cold-starts`` set-ups
(spawn -> first correct answer, median reported as ``setup_s``), then
untimed warm-up and a ``--seconds`` measured window on the last one.
Both end on a whole turn of the workload's op stream, and a window
short of the 100 samples a p90 needs runs on, up to four times its
length.  The lib-engines oracle is computed once per version of the
code and kept in ``benchmarks/output/e2e/``.
``--trace 1`` adds a second, traced pass (one cold start, same seed,
half the window) and reports the per-layer metrics instead of the
end-to-end ones.

Prints ``workload metric value unit`` for every metric, writes the run
to ``benchmarks/output/e2e/<run>.json``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero on
any failed op, too few samples or a broken identity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gen
import measure
import served
import spans

E2E = Path(__file__).resolve().parent
ROOT = E2E.parent.parent
OUT = ROOT / "benchmarks" / "output" / "e2e"

WORKLOADS = ("served-enum", "served-bound", "served-rw", "lib-engines")
#: an open-loop writer running later than this (p90) is overloaded:
#: the run is invalid
MAX_WRITER_LAG_S = 0.050
#: the run is flagged noisy when the calibration loop before and after
#: a workload differ by more than this share
NOISY_CALIBRATION = 0.05

#: the end-to-end metrics of BENCHMARK.json, every workload reports
#: them; the extra ones exist on one workload only or are 0 on every
#: valid run, so compare.py and the validity checks gate them
E2E_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "throughput_qps": "ops/s", "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
#: lib-engines' mean latency per op kind, so each strategy is gated
#: on its own: s8 (bounded) costs ~3 ms of a ~1.1 s round of kinds
KIND_METRICS = {kind: f"{kind}.mean_ms" for kind in gen.LIB_KINDS}
EXTRA_UNITS = {"write_p50_ms": "ms", "write_p90_ms": "ms",
               "failed_fraction": "ratio", "writer_lag_p90_ms": "ms",
               "calibration_ms": "ms",
               **{name: "ms" for name in KIND_METRICS.values()}}

#: per-layer shares of traced op time: metric -> span names whose self
#: time it sums (see spans.install for where each span is taken)
OP_SHARES = {
    "server.self_pct": ("server",),
    "service.self_pct": ("service",),
    "session.self_pct": ("session",),
    "datalog.parse_pct": ("datalog.parse",),
    "ra.copy_pct": ("ra.copy",),
    "ra.decode_pct": ("ra.decode",),
    "engine.stable_pct": ("engine.compiled.stable",
                          "engine.compiled.transform"),
    "engine.bounded_pct": ("engine.compiled.bounded",),
    "engine.iterative_pct": ("engine.compiled.iterative",),
    "engine.seminaive_pct": ("engine.seminaive",),
    "engine.vector_pct": ("engine.delta.numpy", "engine.delta.stub"),
    "engine.delta_python_pct": ("engine.delta.python",),
    "metrics.observe_pct": ("metrics.observe",),
    "flight.finalize_pct": ("flight.finalize",),
    "client.consume_pct": ("lib.op",),
}
#: shares of the traced set-up (spawn -> first answer)
SETUP_SHARES = {
    "setup.datalog_load_pct": ("datalog.load",),
    "setup.ra_build_pct": ("ra.build",),
    "setup.core_classify_pct": ("core.classify",),
    "setup.core_compile_pct": ("core.compile",),
    "setup.engine_pct": ("engine.",),
}
LAYER_UNITS = {
    **{name: "%" for name in OP_SHARES},
    "server.wire_pct": "%", "service.publish_pct": "%",
    **{name: "%" for name in SETUP_SHARES},
    "server.bytes_per_answer": "bytes",
    "session.answer_cache_hit_ratio": "ratio",
    "engine.rounds_per_op": "count",
    "engine.probes_per_answer": "ratio",
    "engine.vector_row_share": "ratio",
    "trace.op_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing: set and dict orders, and so the work done,
    # repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def oracle_key() -> str:
    """A digest of everything the lib-engines oracle depends on: the
    benchmark's generators, the program's source and the interpreter.
    The oracle is deterministic, so runs of the same code share one."""
    digest = hashlib.sha256(sys.version.encode())
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for path in [E2E / "gen.py", E2E / "libworker.py", E2E / "measure.py",
                 *sources]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# -- passes ---------------------------------------------------------------------

def libworker(arguments: list[str], env: dict, timeout: float
              ) -> dict[str, dict]:
    """Run the lib-engines worker to completion; its events by name."""
    with open(OUT / "libworker.log", "ab") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(E2E / "libworker.py"), *arguments],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
            text=True)
        try:
            output, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"libworker exited {proc.returncode}; "
                           f"see {OUT / 'libworker.log'}")
    return {event["event"]: event
            for event in map(json.loads, output.splitlines())}


def lib_pass(seed: int, seconds: float, cold_starts: int, env: dict,
             oracle: Path, spans_path: Path | None = None) -> dict:
    """Cold starts of the lib-engines worker; the last one measures."""
    if not oracle.exists():
        partial = oracle.with_suffix(".partial")
        libworker(["--oracle", str(partial), "--write-oracle"], env, 300)
        partial.replace(oracle)
    setups: list[float] = []
    result: dict = {}
    for start in range(cold_starts):
        last = start == cold_starts - 1
        arguments = ["--oracle", str(oracle), "--seed", str(seed),
                     "--seconds", str(seconds)]
        if not last:
            arguments.append("--cold")
        elif spans_path is not None:
            arguments += ["--spans", str(spans_path)]
        spawned = perf_counter()
        # the worker exits 1 when its first answer is wrong
        events = libworker(arguments, env,
                           seconds * measure.MAX_STRETCH + 150)
        setups.append(events["first"]["t"] - spawned)
        if last:
            result = events["result"]
    return {"setups": setups, "ops": result["ops"],
            "peak_rss_mb": result["peak_rss_mb"], "counters": None,
            "spawned": spawned,
            "spans": None if spans_path is None else str(spans_path)}


def run_pass(workload: str, seed: int, seconds: float, cold_starts: int,
             run_id: str, traced: bool) -> dict:
    spans_path = (OUT / f"{run_id}-{workload}-spans.jsonl" if traced
                  else None)
    if workload == "lib-engines":
        return lib_pass(seed, seconds, cold_starts, child_env(),
                        OUT / f"oracle-{oracle_key()}.json", spans_path)
    return served.run_pass(workload, seed, seconds, cold_starts, ROOT,
                           child_env(), OUT, spans_path)


# -- metrics --------------------------------------------------------------------

def _window(ops: list[dict], kind: str) -> list[dict]:
    return [op for op in ops if op["phase"] == "window"
            and op["kind"] == kind]


def end_to_end(result: dict, workload: str) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced pass, and why it is
    invalid (empty when valid)."""
    problems: list[str] = []
    ops = result["ops"]
    reads = _window(ops, "read")
    writes = _window(ops, "write")
    if not reads:
        return {}, ["no reads in the window"]
    good = [op for op in reads if op["ok"]]
    started = min(op["t0"] for op in reads)
    ended = max(op["t0"] + op["lat"] for op in reads)
    duration = ended - started
    latencies = [op["lat"] for op in reads]
    metrics = {
        "setup_s": statistics.median(result["setups"]),
        "latency_p50_ms": measure.nearest_rank(latencies, 0.5) * 1000,
        "throughput_qps": len(good) / duration,
        "rows_per_s": sum(op["rows"] for op in good) / duration,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    try:
        metrics["latency_p90_ms"] = measure.p90(latencies) * 1000
    except measure.TooFewSamples as error:
        problems.append(f"latency_p90_ms: {error}")
    if workload == "served-rw":
        write_ms = [op["lat"] * 1000 for op in writes]
        metrics["write_p50_ms"] = measure.nearest_rank(write_ms, 0.5)
        try:
            metrics["write_p90_ms"] = measure.p90(write_ms)
            lag = measure.p90([op["lag"] for op in writes])
            metrics["writer_lag_p90_ms"] = lag * 1000
            if lag > MAX_WRITER_LAG_S:
                problems.append(f"writer lag p90 {lag * 1000:.1f} ms > "
                                f"{MAX_WRITER_LAG_S * 1000:.0f} ms")
        except measure.TooFewSamples as error:
            problems.append(f"write_p90_ms: {error}")
    if workload == "lib-engines":
        for kind, name in KIND_METRICS.items():
            metrics[name] = 1000 * statistics.mean(
                op["lat"] for op in reads if op["op"] == kind)
    window = reads + writes
    metrics["failed_fraction"] = (sum(not op["ok"] for op in window)
                                  / len(window))
    failures = [op for op in ops if not op["ok"]]
    if failures:
        problems.append(f"{len(failures)} failed ops, first: "
                        f"{failures[0].get('error')}")
    counters = result["counters"]
    if counters is not None:
        answered = sum(op.get("status") == 200 for op in ops
                       if op["kind"] == "read")
        acked = sum(op.get("status") == 200 for op in ops
                    if op["kind"] == "write")
        if counters["repro_queries_total"] != answered:
            problems.append(
                f"repro_queries_total {counters['repro_queries_total']} "
                f"!= {answered} answered queries")
        if counters["repro_epoch"] != acked:
            problems.append(f"repro_epoch {counters['repro_epoch']} != "
                            f"{acked} acknowledged writes")
    return metrics, problems


def per_op_work(ops: list[dict], workload: str) -> dict[str, tuple]:
    """``query -> (rounds, probes)`` of every evaluated read (answer
    cache misses; on served-rw only once the writer's chain count is
    steady), the work tracing must not steer."""
    work = {}
    for op in ops:
        stats = op.get("stats")
        if (op["kind"] != "read" or not op["ok"]
                or stats.get("answer_cache_hits")
                or (workload == "served-rw"
                    and op["epoch"] < gen.WRITE_LIFETIME)):
            continue
        work.setdefault(op["q"], (stats["rounds"], stats["probes"]))
    return work


def layer_metrics(traced: dict, untraced: dict, workload: str
                  ) -> tuple[dict, list[str]]:
    """Per-layer metrics: shares of traced time from the spans, counts
    from the untraced pass's per-response stats."""
    problems: list[str] = []
    records = spans.load(traced["spans"])
    roots = spans.roots_by_qid(records)
    reads = _window(traced["ops"], "read")
    writes = _window(traced["ops"], "write")

    def op_time(ops: list[dict]) -> tuple[set, float, float]:
        """The ops' root span ids, their summed op time, and the part
        of it their root spans cover.  An op's time is the longer of
        its client latency and its root span: a handler may still be
        freeing a large response after the client has read it."""
        ids, total, covered = set(), 0.0, 0.0
        for op in ops:
            root = roots.get(op["qid"])
            if root is None:
                problems.append(f"no spans for traced op {op['qid']}")
                continue
            ids.add(root["id"])
            span = root["end"] - root["start"]
            total += max(op["lat"], span)
            covered += span
        return ids, total, covered

    read_roots, total, covered = op_time(reads)
    totals = spans.self_by_name(records,
                                lambda span: span["root"] in read_roots)
    metrics = {name: 100 * sum(totals.get(s, 0.0) for s in names) / total
               for name, names in OP_SHARES.items()}
    metrics["server.wire_pct"] = (
        0.0 if workload == "lib-engines"
        else 100 * (total - covered) / total)
    metrics["service.publish_pct"] = 0.0
    if writes:
        write_roots, write_total, _ = op_time(writes)
        metrics["service.publish_pct"] = 100 * sum(
            span["end"] - span["start"] for span in records
            if span["name"] == "service.publish"
            and span["root"] in write_roots) / write_total

    first_answer = traced["spawned"] + traced["setups"][-1]
    setup = spans.self_by_name(
        records, lambda span: span["end"] <= first_answer)
    for name, prefixes in SETUP_SHARES.items():
        seconds = sum(value for span_name, value in setup.items()
                      if span_name.startswith(prefixes))
        metrics[name] = 100 * seconds / traced["setups"][-1]

    base = [op for op in _window(untraced["ops"], "read") if op["ok"]]

    def stat(name: str) -> int:
        return sum(op["stats"].get(name, 0) for op in base)

    answers = stat("answers")
    metrics["server.bytes_per_answer"] = (
        sum(op.get("bytes", 0) for op in base) / answers if answers else 0.0)
    metrics["session.answer_cache_hit_ratio"] = (
        stat("answer_cache_hits") / len(base))
    metrics["engine.rounds_per_op"] = stat("rounds") / len(base)
    metrics["engine.probes_per_answer"] = (
        stat("probes") / answers if answers else 0.0)
    metrics["engine.vector_row_share"] = (
        stat("vector_rows") / stat("derived") if stat("derived") else 0.0)
    metrics["trace.op_ms"] = 1000 * total / len(reads)
    metrics["trace.overhead_ratio"] = (
        measure.nearest_rank([op["lat"] for op in reads], 0.5)
        / measure.nearest_rank([op["lat"] for op in
                                _window(untraced["ops"], "read")], 0.5))

    untraced_work = per_op_work(untraced["ops"], workload)
    traced_work = per_op_work(traced["ops"], workload)
    common = untraced_work.keys() & traced_work.keys()
    if not common:
        problems.append("no evaluated query common to both passes")
    for query in sorted(common):
        if untraced_work[query] != traced_work[query]:
            problems.append(f"tracing changed the work of {query}: "
                            f"{untraced_work[query]} untraced, "
                            f"{traced_work[query]} traced")
            break
    return metrics, problems


# -- running -----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float,
                 cold_starts: int, trace: bool, run_id: str) -> dict:
    calibration = [measure.calibration_ms()]
    untraced = run_pass(workload, seed, seconds, cold_starts, run_id,
                        traced=False)
    metrics, problems = end_to_end(untraced, workload)
    layers = {}
    if trace:
        traced = run_pass(workload, seed, seconds / 2, 1, run_id,
                          traced=True)
        layers, layer_problems = layer_metrics(traced, untraced, workload)
        problems += layer_problems
    calibration.append(measure.calibration_ms())
    metrics["calibration_ms"] = statistics.mean(calibration)
    window = _window(untraced["ops"], "read") + _window(untraced["ops"],
                                                        "write")
    return {
        "metrics": metrics,
        "per_layer": layers,
        "problems": problems,
        "noisy": abs(calibration[1] - calibration[0]) / calibration[0]
        > NOISY_CALIBRATION,
        "calibration_ms": calibration,
        "stream_ended": untraced.get("stream_ended", False),
        "setups_s": untraced["setups"],
        "latencies_ms": {kind: [op["lat"] * 1000 for op in
                                _window(untraced["ops"], kind)]
                         for kind in ("read", "write")},
        "attempted": len(window),
        "failed": sum(not op["ok"] for op in window),
    }


def metadata_of(args) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine(), "window_s": args.seconds,
            "warmup_s": measure.WARMUP_S, "cold_starts": args.cold_starts,
            "seed": args.seed, "trace": bool(args.trace),
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--window", type=float, default=20.0,
                        help="measured window per pass")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add the traced pass; report per-layer "
                             "metrics")
    parser.add_argument("--cold-starts", type=int, default=3)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    meta = metadata_of(args)
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, args.cold_starts,
                bool(args.trace), run_id)
        except Exception as error:  # reported, then a non-zero exit
            print(f"error: {workload}: {type(error).__name__}: {error}",
                  file=sys.stderr)
            return 1
    document = {"meta": meta, "workloads": results}
    (OUT / f"{run_id}.json").write_text(json.dumps(document, indent=1),
                                        encoding="utf-8")

    final: dict = {}
    for workload, result in results.items():
        units = {**E2E_UNITS, **EXTRA_UNITS}
        for name, value in result["metrics"].items():
            print(f"{workload} {name} {value!r} {units[name]}")
        for name, value in result["per_layer"].items():
            print(f"{workload} {name} {value!r} {LAYER_UNITS[name]}")
        for problem in result["problems"]:
            print(f"{workload} INVALID {problem}", file=sys.stderr)
        if result["noisy"]:
            print(f"{workload} NOISY calibration "
                  f"{result['calibration_ms']}", file=sys.stderr)
        if result["stream_ended"]:
            print(f"{workload} LIMIT every bound key was used; the "
                  f"window ended there", file=sys.stderr)
        reported = (result["per_layer"] if args.trace else
                    {name: result["metrics"].get(name)
                     for name in E2E_UNITS})
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, value in reported.items():
            units = LAYER_UNITS if args.trace else E2E_UNITS
            final[prefix + name] = {"value": value, "unit": units[name]}
    correct = all(not r["problems"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
