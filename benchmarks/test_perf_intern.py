"""PERF: dictionary-encoded storage vs raw value tuples.

The same transitive-closure and 3-hop workloads are evaluated twice —
on an interned database (dense int codes end to end, the default) and
on its ``intern=False`` twin (raw value tuples, the pre-encoding
pipeline) — with identical answer sets asserted before any timing is
trusted.  The headline claim, ≥1.5× wall-clock on the 20k-row
transitive-closure workload under a bound query, comes from where the
time actually goes: the fixpoint probes code-indexed lists instead of
hashing strings, and the answer boundary decodes a handful of rows.
The free-enumeration row is reported alongside *honestly* — there the
answer set is ~112k rows and decoding them back to values eats the
kernel win, so interning does not pay; sessions that enumerate
everything should read that row, not the headline.

The pickled database snapshot must also be strictly smaller
interned: int codes beat repeated strings.
Results land in ``benchmarks/output/BENCH_intern.json``, uploaded as a
CI artifact and compared against ``benchmarks/baselines/`` by the
bench-regression job.
"""

import json
import os
import pickle
import time

from repro.core import text_table
from repro.datalog.parser import parse_system
from repro.engine import EvaluationStats, Query, SemiNaiveEngine
from repro.ra import Database

TC_SYSTEM_TEXT = "P(x, y) :- A(x, z), P(z, y)."  # the paper's (s1a), class A1
THREE_HOP_TEXT = "P(x, y) :- A(x, m), B(m, n), C(n, z), P(z, y)."
TARGET_SPEEDUP = 1.5


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _parallel_chains(chains: int, length: int) -> list[tuple]:
    """*chains* disjoint chains of *length* edges — 10k+ EDB rows with
    a closure that stays linear in the input (unlike one long chain)."""
    edges: list[tuple] = []
    for c in range(chains):
        edges.extend((f"c{c}_n{i}", f"c{c}_n{i + 1}")
                     for i in range(length))
    return edges


def _tc_relations(edges: list[tuple]) -> dict:
    nodes = sorted({n for edge in edges for n in edge})
    return {"A": edges, "P__exit": [(n, n) for n in nodes]}


def _layered_3hop_relations(width: int, levels: int,
                            branching: int = 3) -> dict:
    """A layered DAG for the 3-hop rule: join-work-heavy TC."""
    relations: dict[str, list[tuple]] = {"A": [], "B": [], "C": []}
    for level in range(levels):
        rows = relations["ABC"[level % 3]]
        for col in range(width):
            src = f"l{level}_c{col}"
            rows.extend((src, f"l{level + 1}_c{(col + b) % width}")
                        for b in range(branching))
    relations["P__exit"] = [
        (f"l{level}_c{col}",) * 2
        for level in range(0, levels + 1, 3) for col in range(width)]
    return relations


def _twins(relations: dict) -> tuple[Database, Database]:
    """The same contents stored interned and raw."""
    return (Database.from_dict(relations),
            Database.from_dict(relations, intern=False))


def _time_engine(engine, system, db, query, repeats):
    """Best-of-*repeats* wall clock; later runs reuse the version-tagged
    join tables cached on *db*, so the minimum reports the warm steady
    state both storage modes are entitled to."""
    best = float("inf")
    answers = frozenset()
    for _ in range(repeats):
        started = time.perf_counter()
        answers = engine.evaluate(system, db, query,
                                  EvaluationStats())
        best = min(best, time.perf_counter() - started)
    return best, answers


def _measure(name, system, twins, query=None, repeats=3) -> dict:
    interned, raw = twins
    interned_s, interned_answers = _time_engine(
        SemiNaiveEngine(), system, interned, query, repeats)
    raw_s, raw_answers = _time_engine(
        SemiNaiveEngine(), system, raw, query, repeats)
    assert interned_answers == raw_answers, f"{name}: answers differ"
    return {
        "workload": name,
        "edb_rows": interned.total_facts(),
        "answers": len(interned_answers),
        "interned_s": round(interned_s, 4),
        "raw_s": round(raw_s, 4),
        "speedup": round(raw_s / max(interned_s, 1e-9), 2),
    }


def test_interning_speedup(save_artifact, artifact_dir):
    tc_system = parse_system(TC_SYSTEM_TEXT)
    hop_system = parse_system(THREE_HOP_TEXT)
    bound = Query.parse("P(c0_n0, Y)")

    tc_10k = _twins(_tc_relations(_parallel_chains(1250, 8)))
    tc_20k = _twins(_tc_relations(_parallel_chains(2500, 8)))
    hop_20k = _twins(_layered_3hop_relations(555, 12))

    results = [
        _measure("tc-20k-bound-query", tc_system, tc_20k,
                 query=bound, repeats=7),
        _measure("tc-10k-bound-query", tc_system, tc_10k,
                 query=bound, repeats=5),
        _measure("tc-20k-full-enum", tc_system, tc_20k, repeats=3),
        _measure("3hop-20k-bound-query", hop_system, hop_20k,
                 query=Query.parse("P(l0_c0, Y)"), repeats=2),
    ]

    headline = results[0]
    assert headline["edb_rows"] >= 20_000
    assert headline["speedup"] >= TARGET_SPEEDUP, (
        f"interning only {headline['speedup']}x on the 20k-row TC "
        f"bound query (target {TARGET_SPEEDUP}x)")

    # The pickled snapshot: the interned one must be strictly
    # smaller — dense int codes beat repeated node names.
    interned_bytes = len(pickle.dumps(tc_20k[0]))
    raw_bytes = len(pickle.dumps(tc_20k[1]))
    assert interned_bytes < raw_bytes, (
        f"interned snapshot {interned_bytes}B is not smaller than "
        f"raw {raw_bytes}B")

    payload = {
        "bench": "intern",
        "engine": "semi-naive",
        "cpus": _cpus(),
        "target_speedup": TARGET_SPEEDUP,
        "snapshot_bytes_interned": interned_bytes,
        "snapshot_bytes_raw": raw_bytes,
        "results": results,
    }
    (artifact_dir / "BENCH_intern.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    save_artifact("perf_intern", text_table(
        ["workload", "EDB rows", "answers", "interned s", "raw s",
         "speedup"],
        [[p["workload"], p["edb_rows"], p["answers"], p["interned_s"],
          p["raw_s"], f"{p['speedup']}x"] for p in results]))


def test_interning_smoke_parity():
    """The cheap always-on check: a small workload answers identically
    and strictly smaller pickled in a fraction of a second."""
    twins = _twins(_tc_relations(_parallel_chains(250, 8)))
    system = parse_system(TC_SYSTEM_TEXT)
    row = _measure("tc-2k-smoke", system, twins,
                   query=Query.parse("P(c0_n0, Y)"), repeats=2)
    assert row["answers"] == 9
    assert len(pickle.dumps(twins[0])) < len(pickle.dumps(twins[1]))
