"""PERF: the vectorised delta-loop backend vs the tuple-set loop.

The semi-naive delta loop for the hot linear-recursion shape (single
fused step, identity entry layout) spends its time in python-level
tuple plumbing: per-delta-row dict probes, tuple packing, set inserts.
The vectorised backend (:mod:`repro.engine.vector`) keeps the frontier
as flat int64 vectors end-to-end — CSR adjacency gather, packed-key
sorted dedup, one columnar hand-off to the answer boundary — and
builds row tuples only when someone exercises row semantics.  This
bench times ``backend="auto"`` (the kernel wherever the plan shape
certifies) against ``backend="python"`` on the *same* database (same
warm join caches, same plan cache), answers asserted identical outside
the timed region:

* ``tc-20k-full-enum`` — full transitive closure over 2 500 disjoint
  chains of 8 hops (20k edges, ~112k answers).  Gated at ≥2.0x with
  numpy;
* ``tc-20k-bound-query`` — the same fixpoint with a one-constant
  query: semi-naive does not push constants, so the loop dominates,
  and the vector path filters by column mask instead of a per-row
  scan.  Gated at ≥2.0x as well;
* ``3hop-20k-compressed-chain`` — the catalogue's ``compressed_chain``
  rule (``P(x,y) :- A(x,m), B(m,n), C(n,z), P(z,y)``) on a ~20k-row
  layered DAG.  Both runs probe the paper's compressed ``ABC`` edge,
  composed once per version of A, B and C, so each round is one fused
  step and ``auto`` runs the kernel;
* ``chain-700-deep`` — the closure of one 700-edge chain with
  reflexive exits: 246,051 answers in 702 rounds of a few hundred
  rows each.  Per-round work is small and the seen set large, so
  this leg gates the kernel's seen-set upkeep, which must not grow
  with the answers found so far: ``auto`` stays within noise of the
  tuple-set loop (≥ 0.5x).

Without numpy every workload runs the tuple-set loop on both sides,
so only the answer parity is checked.

Results land in ``benchmarks/output/BENCH_vector.json`` and are gated
against ``benchmarks/baselines/BENCH_vector.json`` by
``benchmarks/compare.py``.
"""

import json
import os
import time

from repro.core import text_table
from repro.datalog.parser import parse_system
from repro.engine import EvaluationStats, Query, SemiNaiveEngine
from repro.engine.vector import HAVE_NUMPY
from repro.ra import Database

TC_SYSTEM_TEXT = "P(x, y) :- A(x, z), P(z, y)."  # the paper's (s1a), class A1
#: the catalogue's ``compressed_chain`` shape (class A5): its three
#: atoms compose into one step relation, which the kernel certifies
THREE_HOP_TEXT = "P(x, y) :- A(x, m), B(m, n), C(n, z), P(z, y)."
#: the ISSUE's acceptance gate for the numpy kernel on both 20k TC
#: workloads (full enumeration and the bound query)
TARGET_SPEEDUP = 2.0
#: the composed 3-hop chain and the deep chain, which leaves the
#: kernel little work per round, must stay within noise of the
#: tuple-set loop
FLOOR_WITHIN_NOISE = 0.5


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _parallel_chains(chains: int, length: int) -> list[tuple]:
    edges: list[tuple] = []
    for c in range(chains):
        edges.extend((f"c{c}_n{i}", f"c{c}_n{i + 1}")
                     for i in range(length))
    return edges


def _tc_database(edges: list[tuple]) -> Database:
    nodes = sorted({n for edge in edges for n in edge})
    return Database.from_dict(
        {"A": edges, "P__exit": [(n, n) for n in nodes]})


def _layered_3hop_database(width: int, levels: int,
                           branching: int = 3) -> Database:
    """A layered DAG for the 3-hop rule: *levels*
    edge layers of *width* nodes, layer ``l`` stored in A/B/C by
    ``l % 3``, exits on the A-aligned levels only."""
    relations: dict[str, list[tuple]] = {"A": [], "B": [], "C": []}
    for level in range(levels):
        rows = relations["ABC"[level % 3]]
        for col in range(width):
            src = f"l{level}_c{col}"
            rows.extend((src, f"l{level + 1}_c{(col + b) % width}")
                        for b in range(branching))
    exits = [(f"l{level}_c{col}",) * 2
             for level in range(0, levels + 1, 3)
             for col in range(width)]
    return Database.from_dict({**relations, "P__exit": exits})


def _time_backend(system, db, query, backend, repeats):
    """Best-of-*repeats* evaluation with *backend*; later runs reuse
    the version-tagged join/CSR caches on *db* (warm steady state for
    both backends — the comparison is loop work, not cache builds)."""
    best = float("inf")
    answers = stats = None
    for _ in range(repeats):
        stats = EvaluationStats()
        started = time.perf_counter()
        answers = SemiNaiveEngine(backend=backend).evaluate(
            system, db, query, stats)
        best = min(best, time.perf_counter() - started)
    return best, answers, stats


def _measure(name, system, db, query=None, repeats=5) -> dict:
    vector_s, vector_answers, vector_stats = _time_backend(
        system, db, query, "auto", repeats)
    python_s, python_answers, python_stats = _time_backend(
        system, db, query, "python", repeats)
    assert vector_answers == python_answers, f"{name}: answers differ"
    assert vector_answers.encoded == python_answers.encoded
    assert vector_stats.delta_sizes == python_stats.delta_sizes
    if HAVE_NUMPY:
        assert vector_stats.vector_batches > 0, (
            f"{name}: the vector backend never engaged")
    else:
        # without numpy both sides run the tuple-set loop
        assert vector_stats.vector_batches == 0
        assert vector_stats.backend == "python"
    return {
        "workload": name,
        "backend": vector_stats.backend,
        "edb_rows": db.total_facts(),
        "answers": len(vector_answers),
        "rounds": vector_stats.rounds,
        "vector_s": round(vector_s, 4),
        "python_s": round(python_s, 4),
        "speedup": round(python_s / max(vector_s, 1e-9), 2),
    }


def test_vector_backend_speedup(save_artifact, artifact_dir):
    tc_system = parse_system(TC_SYSTEM_TEXT)
    hop_system = parse_system(THREE_HOP_TEXT)
    tc_20k = _tc_database(_parallel_chains(2500, 8))
    hop_20k = _layered_3hop_database(555, 12)
    bound = Query.parse("P(c0_n0, Y)")

    results = [
        _measure("tc-20k-full-enum", tc_system, tc_20k),
        _measure("tc-20k-bound-query", tc_system, tc_20k, query=bound),
        _measure("3hop-20k-compressed-chain", hop_system, hop_20k,
                 repeats=3),
        _measure("chain-700-deep", tc_system,
                 _tc_database(_parallel_chains(1, 700))),
    ]

    by_name = {r["workload"]: r for r in results}
    full = by_name["tc-20k-full-enum"]
    assert full["answers"] >= 100_000
    if HAVE_NUMPY:
        for gated in ("tc-20k-full-enum", "tc-20k-bound-query"):
            row = by_name[gated]
            assert row["backend"] == "numpy"
            assert row["speedup"] >= TARGET_SPEEDUP, (
                f"vector kernel: {gated} only {row['speedup']}x vs "
                f"the tuple-set loop (gate {TARGET_SPEEDUP}x)")
    deep = by_name["chain-700-deep"]
    assert (deep["answers"], deep["rounds"]) == (246_051, 702)
    for floored in ("3hop-20k-compressed-chain", "chain-700-deep"):
        row = by_name[floored]
        assert row["speedup"] >= FLOOR_WITHIN_NOISE, (
            f"{floored} collapsed to {row['speedup']}x of the "
            f"tuple-set loop (floor {FLOOR_WITHIN_NOISE}x)")

    payload = {
        "bench": "vector",
        "engine": "semi-naive",
        "numpy": HAVE_NUMPY,
        "cpus": _cpus(),
        "target_speedup": TARGET_SPEEDUP,
        "floor_within_noise": FLOOR_WITHIN_NOISE,
        "results": results,
    }
    (artifact_dir / "BENCH_vector.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    save_artifact("perf_vector", text_table(
        ["workload", "backend", "EDB rows", "answers", "rounds",
         "vector s", "python s", "speedup"],
        [[p["workload"], p["backend"], p["edb_rows"], p["answers"],
          p["rounds"], p["vector_s"], p["python_s"],
          f"{p['speedup']}x"] for p in results]))


def test_vector_smoke_parity():
    """The cheap always-on check: both backends agree on a small TC
    and the vector counters move only on the vector side (and only
    when numpy is installed)."""
    system = parse_system(TC_SYSTEM_TEXT)
    db = _tc_database(_parallel_chains(250, 8))
    stats_v, stats_p = EvaluationStats(), EvaluationStats()
    vector = SemiNaiveEngine(backend="auto").evaluate(
        system, db.copy(), None, stats_v)
    python = SemiNaiveEngine(backend="python").evaluate(
        system, db.copy(), None, stats_p)
    assert vector == python
    assert (stats_v.vector_batches > 0) == HAVE_NUMPY
    assert stats_p.vector_batches == 0
    assert stats_v.delta_sizes == stats_p.delta_sizes
