"""PERF5: interpreted top-down vs compiled top-down.

The paper's compilation lineage ([Hens 84]) is top-down; the point of
*compiling* is to replace run-time resolution with a closed iterative
formula.  This bench quantifies that: interpreted top-down by magic
sets (bindings passed sideways through the rule text, then the
binding-filtered fixpoint) vs the compiled chain iteration, same
answers, on growing chains."""

from repro.core import text_table
from repro.engine import (CompiledEngine, EvaluationStats, Query,
                          TopDownEngine)
from repro.ra import Database
from repro.workloads import CATALOGUE, chain, reflexive_exit


def test_perf5_interpreted_vs_compiled_topdown(benchmark, save_artifact):
    system = CATALOGUE["s1a"].system()

    def sweep():
        rows = []
        for length in (8, 16, 32):
            db = Database.from_dict({
                "A": chain(length),
                "P__exit": reflexive_exit(length)})
            query = Query.parse("P(n0, Y)")
            interpreted, compiled = EvaluationStats(), EvaluationStats()
            a1 = TopDownEngine().evaluate(system, db, query, interpreted)
            a2 = CompiledEngine().evaluate(system, db, query, compiled)
            assert a1 == a2
            rows.append([length, interpreted.probes, compiled.probes,
                         f"{interpreted.probes / compiled.probes:.1f}x"])
        return rows

    rows = benchmark(sweep)
    # the compiled form wins, and increasingly so
    factors = [float(row[3][:-1]) for row in rows]
    assert all(f > 1 for f in factors)
    assert factors[-1] > factors[0]
    save_artifact("perf5_topdown", text_table(
        ["chain length", "magic-sets probes",
         "compiled chain probes", "factor"], rows))
