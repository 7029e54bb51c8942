"""PERF1: engine comparison on class-A workloads (the motivation).

The paper's premise (and [Han 85a]'s performance results) is that
compiled selection-first evaluation beats bottom-up computation of the
whole fixpoint for selective queries.  We sweep workload shapes
(chain, tree, random digraph) for transitive closure and report the
probe counts per engine; the *shape* claim checked: compiled < semi-
naive < naive, with the gap growing in the data size.

PERF1c isolates the mechanism: a bound query on one chain among k
disjoint ones.  The σ-first stable strategy only touches its own
chain, so its probes do not depend on k; the fixpoint's grow with k.
"""

import pytest

from repro.bench import POINT_HEADERS, run_point
from repro.core import text_table
from repro.engine import Query
from repro.ra import Database
from repro.workloads import (CATALOGUE, binary_tree, chain,
                             random_digraph, reflexive_exit)


def _tc_database(shape: str, size: int) -> tuple[Database, str]:
    if shape == "chain":
        edges = chain(size)
        start = "n0"
    elif shape == "tree":
        edges = binary_tree(size)
        start = "t1"
    else:
        edges = random_digraph(size, 2 * size, seed=1)
        start = edges[0][0]
    nodes = sorted({n for edge in edges for n in edge})
    db = Database.from_dict({"A": edges,
                             "P__exit": [(n, n) for n in nodes]})
    return db, start


SWEEP = [("chain", 16), ("chain", 48), ("tree", 4), ("tree", 7),
         ("random", 24), ("random", 64)]


@pytest.mark.parametrize("shape,size", SWEEP)
def test_perf1_engine_comparison(benchmark, save_artifact, shape, size):
    system = CATALOGUE["s1a"].system()
    db, start = _tc_database(shape, size)
    query = Query("P", (start, None))

    point = benchmark(run_point, f"{shape}-{size}", system, db, query)
    assert point.agreed
    naive = point.runs["naive"].stats.probes
    semi = point.runs["semi-naive"].stats.probes
    compiled = point.runs["compiled"].stats.probes
    # the paper's ordering: compiled beats semi-naive beats naive
    assert compiled < semi < naive
    table = text_table(POINT_HEADERS, [point.row()])
    save_artifact(f"perf1_{shape}_{size}", table)


def test_perf1_gap_grows_with_size(save_artifact, benchmark):
    """The compiled/semi-naive gap widens on longer chains (linear
    frontier walk vs quadratic fixpoint)."""
    system = CATALOGUE["s1a"].system()

    def sweep():
        ratios = []
        for length in (8, 16, 32, 64):
            db = Database.from_dict({
                "A": chain(length),
                "P__exit": reflexive_exit(length)})
            point = run_point(f"chain-{length}", system, db,
                              Query.parse("P(n0, Y)"),
                              engines=("semi-naive", "compiled"))
            ratios.append(
                (length,
                 point.runs["semi-naive"].stats.probes,
                 point.runs["compiled"].stats.probes))
        return ratios

    ratios = benchmark(sweep)
    factors = [semi / comp for _, semi, comp in ratios]
    assert all(later > earlier
               for earlier, later in zip(factors, factors[1:]))
    rows = [[length, semi, comp, f"{semi / comp:.1f}x"]
            for length, semi, comp in ratios]
    save_artifact("perf1_scaling", text_table(
        ["chain length", "semi-naive probes", "compiled probes",
         "factor"], rows))


def _disjoint_chains(count: int, length: int = 8) -> Database:
    """*count* disjoint *length*-edge chains ``c<i>_n0 .. c<i>_n<length>``
    with reflexive exits on every node."""
    edges = [(f"c{c}_n{i}", f"c{c}_n{i + 1}")
             for c in range(count) for i in range(length)]
    nodes = [f"c{c}_n{i}" for c in range(count) for i in range(length + 1)]
    return Database.from_dict({"A": edges,
                               "P__exit": [(n, n) for n in nodes]})


def test_perf1c_probes_independent_of_other_chains(save_artifact,
                                                    benchmark):
    """PERF1c: compiled probes for ``P(c0_n0, Y)`` are the same for
    every number of disjoint chains; semi-naive's grow with it."""
    system = CATALOGUE["s1a"].system()
    query = Query.parse("P(c0_n0, Y)")

    def sweep():
        rows = []
        for count in (1, 10, 100, 1000):
            point = run_point(f"chains-{count}", system,
                              _disjoint_chains(count), query,
                              engines=("semi-naive", "compiled"))
            assert point.agreed
            assert len(point.runs["compiled"].answers) == 9
            rows.append((count, point.runs["semi-naive"].stats.probes,
                         point.runs["compiled"].stats.probes))
        return rows

    rows = benchmark(sweep)
    compiled = [comp for _, _, comp in rows]
    semi = [semi for _, semi, _ in rows]
    assert len(set(compiled)) == 1
    assert all(later > earlier for earlier, later in zip(semi, semi[1:]))
    save_artifact("perf1_isolation", text_table(
        ["chains", "semi-naive probes", "compiled probes"],
        [list(row) for row in rows]))
