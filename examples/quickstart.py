#!/usr/bin/env python3
"""Quickstart: classify a recursive rule, compile a query, run it.

This walks the full pipeline of the paper on transitive closure (the
paper's statement (s1a)): build the I-graph, classify, read off the
compiled formula, and evaluate a selective query with all three
engines.

Run:  python examples/quickstart.py
"""

from repro import (CompiledEngine, Database, NaiveEngine, Query,
                   SemiNaiveEngine, ascii_figure, classify,
                   compile_query, parse_system)
from repro.engine import EvaluationStats


def main() -> None:
    # 1. The recursive formula (the paper's s1a) with an explicit exit.
    system = parse_system("""
        P(x, y) :- A(x, z), P(z, y).
        P(x, y) :- E(x, y).
    """)
    print("rule:", system.recursive)

    # 2. Its I-graph and classification.
    classification = classify(system)
    print()
    print(ascii_figure(classification.graph, "I-graph:"))
    print()
    print("classification:", classification.describe())
    print("strongly stable:", classification.is_strongly_stable)

    # 3. The compiled formula for the query form P(d, v).
    compiled = compile_query(system, "dv", classification)
    print()
    print("compiled formula for P(d, v):", compiled.plan_text)

    # 4. Evaluate P(n0, Y) over a small chain database.
    db = Database.from_dict({
        "A": [(f"n{i}", f"n{i + 1}") for i in range(10)],
        "E": [(f"n{i}", f"n{i}") for i in range(11)],
    })
    query = Query.parse("P(n0, Y)")
    print()
    print(f"query {query} over a 10-edge chain:")
    for engine in (NaiveEngine(), SemiNaiveEngine(), CompiledEngine()):
        stats = EvaluationStats()
        answers = engine.evaluate(system, db, query, stats)
        print(f"  {stats.engine:10s} -> {len(answers):2d} answers, "
              f"{stats.probes:4d} index probes")

    answers = CompiledEngine().evaluate(system, db, query,
                                        compiled=compiled)
    reachable = sorted(row[1] for row in answers)
    print()
    print("nodes reachable from n0:", ", ".join(reachable))


if __name__ == "__main__":
    main()
