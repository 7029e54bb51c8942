"""Benchmark harness: engine runs, agreement checks, table rows."""

from .harness import POINT_HEADERS, EngineRun, ExperimentPoint, run_point

__all__ = ["POINT_HEADERS", "EngineRun", "ExperimentPoint", "run_point"]
