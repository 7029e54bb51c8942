"""CI smoke: one traced query per engine, validated against the schema.

Runs transitive closure through every engine (naive, semi-naive,
compiled, top-down, incremental) with a
:class:`~repro.engine.trace.Tracer` attached, validates each emitted
JSON document with
:func:`~repro.engine.trace.validate_trace_dict`, and checks the
delta-conservation invariant (sum of per-round ``delta_out`` equals
the answer count).  It also reconciles the trace against the stats
dump of the same run (what ``repro run --stats-json`` writes): the
trace's round total must equal the sum of
``EvaluationStats.delta_sizes`` for every engine — the two
observability surfaces must never disagree.  Exits non-zero on the
first violation — this is the drift gate for
``TRACE_SCHEMA_VERSION``/``STATS_SCHEMA_VERSION``.

Usage::

    PYTHONPATH=src python scripts/trace_smoke.py
"""

from __future__ import annotations

import json
import sys

from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, MaterializedRecursion,
                          NaiveEngine, Query, SemiNaiveEngine,
                          TopDownEngine, Tracer, validate_trace_dict)
from repro.engine.stats import EvaluationStats, delta_between
from repro.ra import Database
from repro.workloads import chain

ENGINES = {
    "naive": NaiveEngine(),
    "semi-naive": SemiNaiveEngine(),
    "compiled": CompiledEngine(),
    "top-down": TopDownEngine(),
}


def main() -> int:
    system = parse_system("P(x, y) :- A(x, z), P(z, y).")
    db = Database.from_dict({
        "A": chain(8),
        "P__exit": [(f"n{i}", f"n{i}") for i in range(9)],
    })
    query = Query.all_free("P", 2)
    failures = 0

    for label, engine in ENGINES.items():
        tracer = Tracer()
        stats = EvaluationStats()
        answers = engine.evaluate(system, db.copy(), query, stats,
                                  trace=tracer)
        failures += _check(label, tracer, len(answers),
                           stats.to_dict())

    view = MaterializedRecursion(system, db)
    tracer = Tracer()
    before = view.stats.to_dict()
    added = view.insert("A", ("n9", "n0"), trace=tracer)
    failures += _check("incremental", tracer, len(added),
                       delta_between(before, view.stats.to_dict()))

    if failures:
        print(f"trace smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"trace smoke: {len(ENGINES) + 1} engines OK")
    return 0


def _check(label: str, tracer: Tracer, expected: int,
           stats_dump: dict) -> int:
    if tracer.trace is None:
        print(f"{label}: no trace emitted", file=sys.stderr)
        return 1
    document = json.loads(tracer.trace.to_json())
    try:
        validate_trace_dict(document)
    except ValueError as error:
        print(f"{label}: schema violation: {error}", file=sys.stderr)
        return 1
    if tracer.trace.delta_total != expected:
        print(f"{label}: traced deltas {tracer.trace.delta_total} != "
              f"answers {expected}", file=sys.stderr)
        return 1
    # Trace/stats reconciliation: both layers count the same rounds.
    stats_total = sum(stats_dump["delta_sizes"])
    if tracer.trace.delta_total != stats_total:
        print(f"{label}: traced deltas {tracer.trace.delta_total} != "
              f"stats delta_sizes sum {stats_total}", file=sys.stderr)
        return 1
    print(f"{label}: {len(document['rounds'])} rounds, "
          f"{expected} answers — schema OK, stats reconciled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
