"""Differential testing against the ground-instantiation oracle.

The oracle shares no evaluation code with the engines (no unification,
no conjunctive solver, no indexes), so agreement here rules out whole
families of shared-code bugs.  Its round-synchronous variant is also
the reference for the semi-naive engine's per-round deltas, on both
delta-loop backends: round r of either must add exactly the depth-r
tuples, which is what makes ``delta_sizes`` a measured rank.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, EvaluationStats, NaiveEngine,
                          Query, SemiNaiveEngine, TopDownEngine)
from repro.ra import Database
from repro.workloads import CATALOGUE, chain

from .oracle import oracle_evaluate, oracle_rounds
from .strategies import linear_systems

TINY = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def tiny_edb(system, seed: int) -> Database:
    """A very small database (the oracle is exponential)."""
    from repro.workloads import random_edb
    return random_edb(system, nodes=3, tuples_per_relation=4, seed=seed)


def assert_rounds_match_oracle(system, db) -> frozenset:
    """Semi-naive answers and ``delta_sizes`` on both backends equal
    the oracle's fixpoint and per-round counts; the oracle's answers."""
    expected, rounds = oracle_rounds(system, db)
    sizes = [len(new) for new in rounds]
    for backend in ("auto", "python"):
        stats = EvaluationStats()
        answers = SemiNaiveEngine(backend=backend).evaluate(
            system, db, stats=stats)
        assert answers == expected, backend
        assert stats.delta_sizes == sizes, backend
    return expected


class TestKnownCases:
    def test_transitive_closure(self):
        system = CATALOGUE["s1a"].system()
        db = Database.from_dict({
            "A": chain(3),
            "P__exit": [(f"n{i}", f"n{i}") for i in range(4)],
        })
        oracle, rounds = oracle_rounds(system, db)
        assert [len(new) for new in rounds] == [4, 3, 2, 1, 0]
        assert rounds[3] == {("n0", "n3")}
        assert assert_rounds_match_oracle(system, db) == oracle
        assert len(oracle) == 10

    @pytest.mark.parametrize("name", ["s5", "s8", "s10", "s11"])
    def test_paper_examples_tiny(self, name):
        system = CATALOGUE[name].system()
        db = tiny_edb(system, seed=1)
        assert oracle_evaluate(system, db) == \
            SemiNaiveEngine().evaluate(system, db)


class TestRoundSynchronous:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_catalogue_delta_sizes(self, catalogue_entry, seed):
        """Every paper formula (classes A1 through F), round for round."""
        system = catalogue_entry.system()
        assert_rounds_match_oracle(system, tiny_edb(system, seed))

    def test_multi_exit_system(self):
        system = parse_system("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            P(x, x) :- U(x).
        """)
        db = Database.from_dict({"A": chain(4), "E": [("n4", "n4")],
                                 "U": [("q",)]})
        answers = assert_rounds_match_oracle(system, db)
        assert ("q", "q") in answers


class TestDifferentialProperty:
    @TINY
    @given(linear_systems(max_arity=2, max_edb_atoms=2),
           st.integers(0, 2))
    def test_all_engines_match_the_oracle(self, system, seed):
        db = tiny_edb(system, seed)
        expected = assert_rounds_match_oracle(system, db)
        query = Query.all_free(system.predicate, system.dimension)
        for engine in (NaiveEngine(), CompiledEngine(), TopDownEngine()):
            assert engine.evaluate(system, db, query) == expected, \
                engine.name
