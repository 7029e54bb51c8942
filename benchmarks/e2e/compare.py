"""Parent vs change over paired runs of the end-to-end benchmark.

Usage::

    python benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is one ``run.py`` output (``benchmarks/output/e2e/<run>.json``).
Runs pair up by workload and seed; run the two commits alternately,
at least ten seeds each.  Per workload and end-to-end metric it prints
both sides' medians and quartiles, the pairs the change won, and a
verdict:

* ``improved`` — the change wins at least 9/10 of the pairs (ties count
  for neither) and its median beats the parent's by more than the
  parent's interquartile distance;
* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median);
* ``unresolved`` — either side's spread (IQR / median) is wider than
  the bound, so "unchanged" cannot be claimed;
* ``within bound`` — otherwise.

Bounds come from ``BENCHMARK.json``; the metrics only some workloads
have (``write_p50_ms``, ``write_p90_ms``, lib-engines' per-kind
``<kind>.mean_ms``) and ``failed_fraction`` carry their own below.
Runs whose metadata differ (cpus, python, numpy, window, warm-up, cold
starts) or whose seed sets differ are refused.
Exits 1 when any verdict is ``regressed``, 2 when the runs are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import KIND_METRICS

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
#: metrics beyond BENCHMARK.json's: name -> (better, bound)
EXTRA_METRICS = {"write_p50_ms": ("lower", 0.25),
                 "write_p90_ms": ("lower", 0.25),
                 "failed_fraction": ("lower", 0.0),
                 **{name: ("lower", 0.25)
                    for name in KIND_METRICS.values()}}
#: metadata that must match across every run compared
SAME = ("cpus", "python", "numpy", "window_s", "warmup_s", "cold_starts")


class Refused(ValueError):
    """The two run sets cannot be compared."""


def metric_table() -> dict[str, tuple[str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = {m["name"]: (m["better"], m["bound"])
             for m in spec["end_to_end"]}
    table.update(EXTRA_METRICS)
    return table


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Compare seed-paired values of one metric on one workload."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    gain = sign * (c_med - p_med)

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else 0.0

    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        result = "improved"
    elif -gain > bound * abs(p_med):
        result = "regressed"
    elif max(spread(p_q1, p_med, p_q3), spread(c_q1, c_med, c_q3)) > bound:
        result = "unresolved"
    else:
        result = "within bound"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(parent), "verdict": result}


def by_workload(runs: list[dict]) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metrics."""
    table: dict[str, dict[int, dict]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            table.setdefault(workload, {})[run["meta"]["seed"]] = (
                result["metrics"])
    return table


def compare(parent_runs: list[dict], change_runs: list[dict],
            metrics: dict[str, tuple[str, float]]) -> list[dict]:
    """One row per workload x metric; raises Refused on mismatch."""
    metas = [run["meta"] for run in parent_runs + change_runs]
    for key in SAME:
        values = {json.dumps(meta.get(key)) for meta in metas}
        if len(values) > 1:
            raise Refused(f"runs differ in {key}: {sorted(values)}")
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    if parent.keys() != change.keys():
        raise Refused(f"workloads differ: {sorted(parent)} vs "
                      f"{sorted(change)}")
    rows = []
    for workload in sorted(parent):
        seeds = sorted(parent[workload])
        if seeds != sorted(change[workload]):
            raise Refused(f"{workload}: seed sets differ")
        if len(seeds) < MIN_PAIRS:
            raise Refused(f"{workload}: {len(seeds)} pairs, need "
                          f"{MIN_PAIRS}")
        for name, (better, bound) in metrics.items():
            if name not in parent[workload][seeds[0]]:
                continue
            row = verdict([parent[workload][s][name] for s in seeds],
                          [change[workload][s][name] for s in seeds],
                          better, bound)
            rows.append({"workload": workload, "metric": name, **row})
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    def load(paths):
        return [json.loads(Path(p).read_text(encoding="utf-8"))
                for p in paths]

    try:
        rows = compare(load(args.parent), load(args.change),
                       metric_table())
    except Refused as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        print(f"{row['workload']:13} {row['metric']:16} "
              f"parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
              f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  "
              f"won {row['wins']}/{row['pairs']}  {row['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
