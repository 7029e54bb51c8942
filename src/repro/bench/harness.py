"""Experiment harness shared by the benchmark suite.

Runs the three engines on a (system, database, query) triple, collects
answers, statistics and wall-clock, and checks the engines agree — a
benchmark that silently measured wrong answers would be worthless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..datalog.program import RecursionSystem
from ..engine import ENGINES
from ..engine.query import Query
from ..engine.stats import EvaluationStats
from ..ra.database import Database


@dataclass(frozen=True)
class EngineRun:
    """One engine's measurements on one query."""

    engine: str
    answers: frozenset[tuple]
    stats: EvaluationStats
    seconds: float


@dataclass(frozen=True)
class ExperimentPoint:
    """All engines' measurements on one (system, db, query) triple."""

    label: str
    query: Query
    runs: dict[str, EngineRun]

    @property
    def agreed(self) -> bool:
        """Whether every engine produced the same answer set."""
        answer_sets = {run.answers for run in self.runs.values()}
        return len(answer_sets) == 1

    def speedup(self, slow: str = "naive", fast: str = "compiled") -> float:
        """Probe-count ratio between two engines (∞-safe)."""
        slow_probes = self.runs[slow].stats.probes
        fast_probes = max(1, self.runs[fast].stats.probes)
        return slow_probes / fast_probes

    def row(self) -> list[object]:
        """A table row: label, |answers|, probes per engine, agreement."""
        sizes = {name: run.stats.probes for name, run in self.runs.items()}
        count = len(next(iter(self.runs.values())).answers)
        return [self.label, str(self.query), count,
                sizes.get("naive", "-"), sizes.get("semi-naive", "-"),
                sizes.get("compiled", "-"),
                "yes" if self.agreed else "NO"]


def run_point(label: str, system: RecursionSystem, database: Database,
              query: Query,
              engines: tuple[str, ...] = ("naive", "semi-naive",
                                          "compiled")) -> ExperimentPoint:
    """Run the named engines on one triple and package the results."""
    runs: dict[str, EngineRun] = {}
    for name in engines:
        engine = ENGINES[name]()
        stats = EvaluationStats()
        started = time.perf_counter()
        answers = engine.evaluate(system, database, query, stats)
        elapsed = time.perf_counter() - started
        runs[name] = EngineRun(engine=name, answers=answers, stats=stats,
                               seconds=elapsed)
    return ExperimentPoint(label=label, query=query, runs=runs)


POINT_HEADERS = ["workload", "query", "answers", "naive probes",
                 "semi-naive probes", "compiled probes", "agree"]
