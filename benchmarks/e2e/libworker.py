"""The lib-engines process under test: engines called in-process.

Usage::

    python benchmarks/e2e/libworker.py --oracle PATH --write-oracle
    python benchmarks/e2e/libworker.py --oracle PATH --seed N
        [--seconds S] [--cold] [--spans PATH]

``--write-oracle`` builds the datasets and writes the fingerprints of
every answer the op stream can ask for, computed by another path than
the ops' own.  It runs in its own process so that its work leaves no
trace in the measured process's memory peak (fingerprints hash
strings, so both processes run under the same ``PYTHONHASHSEED``).

Otherwise, set-up builds every dataset, compiles the bound-query plans
and runs one first op (the tc-20k enumeration), then prints one JSON
line ``{"event": "first", "t": <perf_counter when its rows were
read>}``: the parent times set-up from its spawn to that instant (both
clocks are the system's monotonic clock).  ``--cold`` stops there.
Otherwise the worker warms up, runs the measured window in one thread
and prints ``{"event": "result", ...}`` with every op.

An op is: parse the query text, evaluate it (``SemiNaiveEngine``,
backend ``auto``, for full fixpoints; ``CompiledEngine`` with the plan
compiled at set-up for bound queries) and iterate every answer row.
Answers are checked outside the timed region against the oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import gen
import measure
import spans


def _emit(document: dict) -> None:
    print(json.dumps(document), flush=True)


class Engines:
    """The datasets, systems and plans of every op kind."""

    def __init__(self) -> None:
        import repro.core.classifier as classifier
        import repro.core.compile as compile_module
        from repro.datalog.parser import parse_system
        from repro.ra.database import Database
        self.systems = {}
        self.databases = {}
        self.plans = {}
        for kind, (rule, relations) in gen.lib_datasets().items():
            system = parse_system(rule)
            self.systems[kind] = system
            self.databases[kind] = Database.from_dict(relations)
            if kind in gen.BOUND_KINDS:
                self.plans[kind] = compile_module.compile_query(
                    system, frozenset({0}), classifier.classify(system))

    def evaluate(self, kind: str, text: str, backend: str = "auto"):
        """One op's evaluation; ``(answers, stats)``."""
        from repro.engine import (CompiledEngine, EvaluationStats, Query,
                                  SemiNaiveEngine)
        query = Query.parse(text)
        stats = EvaluationStats()
        system, database = self.systems[kind], self.databases[kind]
        if kind in gen.FULL_KINDS:
            answers = SemiNaiveEngine(backend=backend).evaluate(
                system, database, query, stats)
        else:
            answers = CompiledEngine().evaluate(
                system, database, query, stats, compiled=self.plans[kind])
        return answers, stats

    def op(self, kind: str, text: str):
        """Evaluate and read every row: ``(answers, stats, rows)``."""
        answers, stats = self.evaluate(kind, text)
        return answers, stats, sum(1 for _ in answers)

    def oracle(self) -> dict[str, list[int]]:
        """``"kind|query" -> fingerprint`` of every query the stream can
        draw, by a path other than the op's own: the python delta loop
        for the vectorised fixpoints, the benchmark's own closure for
        the 3-hop rule (whose ``auto`` path already is the python loop),
        and filtered semi-naive fixpoints for the compiled bound
        queries."""
        from repro.engine import SemiNaiveEngine
        expected = {}
        for kind in gen.FULL_KINDS:
            if kind == "hop3":
                rows = gen.hop3_answers(*gen.HOP3)
            else:
                rows, _ = self.evaluate(kind, "P(X, Y)", backend="python")
            expected[f"{kind}|P(X, Y)"] = measure.fingerprint(rows)
        for kind in gen.BOUND_KINDS:
            fixpoint = SemiNaiveEngine(backend="python").evaluate(
                self.systems[kind], self.databases[kind])
            by_first: dict[str, list] = {}
            for row in fixpoint:
                by_first.setdefault(row[0], []).append(row)
            for constant in gen.lib_constants(kind):
                query = gen.lib_query(kind, constant)
                expected[f"{kind}|{query}"] = measure.fingerprint(
                    by_first.get(constant, []))
        return expected


def run_op(engines: Engines, kind: str, text: str, recorder, qid: str,
           expected: list[int] | None) -> dict:
    record = {"kind": "read", "op": kind, "q": text, "qid": qid}
    started = record["t0"] = perf_counter()
    try:
        if recorder is None:
            answers, stats, rows = engines.op(kind, text)
        else:
            answers, stats, rows = recorder.call(
                "lib.op", engines.op, (kind, text), {}, qid=qid)
        record["lat"] = perf_counter() - started
    except Exception as error:  # an op failure is a measurement
        record.update(lat=perf_counter() - started, rows=0, ok=False,
                      error=f"{type(error).__name__}: {error}")
        return record
    record["rows"] = rows
    record["stats"] = {name: getattr(stats, name) for name in
                       ("rounds", "probes", "derived", "vector_rows",
                        "answers")}
    record["ok"] = measure.fingerprint(answers) == expected
    if not record["ok"]:
        record["error"] = "answers differ from the oracle"
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--cold", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--oracle", required=True)
    parser.add_argument("--write-oracle", action="store_true")
    args = parser.parse_args(argv)

    if args.write_oracle:
        with open(args.oracle, "w", encoding="utf-8") as out:
            json.dump(Engines().oracle(), out)
        return 0

    recorder = None
    if args.spans is not None:
        recorder = spans.Recorder()
        spans.install(recorder)

    engines = Engines()
    answers, _, _ = engines.op("tc20k", "P(X, Y)")
    first = perf_counter()
    first_ok = set(answers) == gen.tc_answers(*gen.TC20K)
    _emit({"event": "first", "t": first, "ok": first_ok})
    if args.cold or not first_ok:
        return 0 if first_ok else 1

    with open(args.oracle, encoding="utf-8") as handle:
        expected = json.load(handle)
    turns = gen.lib_turns(args.seed)
    ops = []
    counts = {"warmup": 0, "window": 0}

    def measured(phase: str):
        def op(kind_text: tuple[str, str]) -> None:
            kind, text = kind_text
            record = run_op(engines, kind, text, recorder,
                            f"{phase}-{len(ops)}",
                            expected.get(f"{kind}|{text}"))
            record["phase"] = phase
            ops.append(record)
            counts[phase] += 1
        return op

    measure.closed_loop(turns, measured("warmup"),
                        perf_counter() + measure.WARMUP_S)
    # the traced pass reports shares of time, not percentiles
    measure.closed_loop(
        turns, measured("window"), perf_counter() + args.seconds,
        measure.stretch(args.seconds), lambda: (recorder is None and counts["window"]
                               < measure.MIN_P90_SAMPLES))
    rss = measure.peak_rss_mb()
    if recorder is not None:
        recorder.dump(args.spans)
    _emit({"event": "result", "ops": ops, "peak_rss_mb": rss})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
