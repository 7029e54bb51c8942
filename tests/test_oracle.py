"""Differential testing against the ground-instantiation oracle.

The oracle shares no evaluation code with the engines (no unification,
no conjunctive solver, no indexes), so agreement here rules out whole
families of shared-code bugs.  Its round-synchronous variant is also
the reference for the semi-naive engine's per-round deltas, on both
delta-loop backends: round r of either must add exactly the depth-r
tuples, which is what makes ``delta_sizes`` a measured rank.

Bound queries are checked the same way: for every adornment, with
constants from the active domain, the compiled and top-down answers
must equal the oracle's fixpoint filtered by the query pattern.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bindings import all_adornments
from repro.core.compile import Strategy, compile_query
from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, EvaluationStats, NaiveEngine,
                          Query, SemiNaiveEngine, TopDownEngine, Tracer)
from repro.engine import vector as vector_module
from repro.ra import Database
from repro.workloads import CATALOGUE, EXTRA_CATALOGUE, chain, random_edb

from .oracle import oracle_evaluate, oracle_rounds
from .strategies import linear_systems

TINY = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def tiny_edb(system, seed: int) -> Database:
    """A very small database (the oracle is exponential)."""
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

    @pytest.mark.parametrize("seed", [2, 4])
    @pytest.mark.parametrize("rules", [
        pytest.param(CATALOGUE["compressed"].text, id="compressed"),
        pytest.param(EXTRA_CATALOGUE["compressed_chain"].text,
                     id="compressed_chain"),
        pytest.param(EXTRA_CATALOGUE["decorated_stable"].text,
                     id="decorated_stable"),
        pytest.param("P(x, y) :- A(x, m), B(m, z), P(z, y).",
                     id="two-atom-path"),
        pytest.param("P(x, y) :- A(x, m), B(m, n), C(n, o), D(o, z), "
                     "P(z, y).", id="four-atom-path"),
    ])
    def test_compressed_chains(self, monkeypatch, rules, seed):
        """A cluster between the head and the recursive call runs as
        one composed step: semi-naive on both backends and with numpy
        hidden, and the compiled engine's all-free fixpoint, still
        answer and add rows round for round as the oracle does."""
        system = parse_system(rules)
        db = random_edb(system, nodes=4, tuples_per_relation=6,
                        seed=seed)
        tracer = Tracer()
        SemiNaiveEngine().evaluate(system, db.copy(), trace=tracer)
        assert tracer.trace.rounds[1].detail["chain_status"] == "built"
        expected = assert_rounds_match_oracle(system, db)
        sizes = [len(new) for new in oracle_rounds(system, db)[1]]
        assert len(sizes) > 2  # a delta round adds rows
        query = Query.all_free(system.predicate, system.dimension)
        monkeypatch.setattr(vector_module, "_np", None)
        for engine in (SemiNaiveEngine(), CompiledEngine()):
            stats = EvaluationStats()
            assert engine.evaluate(system, db, query, stats) == expected
            assert stats.delta_sizes == sizes, engine.name
            assert stats.backend == "python"

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


def assert_bound_query_matches_oracle(system, db, expected, pattern,
                                      engines=(CompiledEngine,
                                               TopDownEngine)) -> None:
    """Each of *engines*' answers to *pattern* (compiled and top-down
    by default) equal the oracle's fixpoint *expected* filtered by
    it."""
    query = Query(system.predicate, tuple(pattern))
    want = frozenset(row for row in expected if query.matches(row))
    for engine in engines:
        assert engine().evaluate(system, db, query) == want, \
            (engine.name, str(query))


def answer_patterns(expected, adornment, arity, domain) -> set[tuple]:
    """Query patterns for *adornment*: constants taken from two oracle
    answers (queries that hit) and from the first domain value."""
    rows = sorted(expected)[:2] + [(domain[0],) * arity]
    return {tuple(row[i] if i in adornment else None
                  for i in range(arity)) for row in rows}


def assert_every_form_matches_oracle(system, db, strategy,
                                     every_engine=False) -> None:
    """Every adornment compiles to *strategy* and answers as the oracle
    does, with the constants of every oracle answer (queries that hit)
    and tuples of the first domain values (mostly misses) bound, on
    the compiled and top-down engines.  With *every_engine*, naive and
    semi-naive, which run the whole fixpoint whatever the query binds,
    answer :func:`answer_patterns` of every adornment too."""
    expected = oracle_evaluate(system, db)
    domain = sorted(db.active_domain())
    arity = system.dimension
    rows = sorted(expected) + list(
        itertools.product(domain[:3], repeat=arity))
    for adornment in all_adornments(arity):
        assert compile_query(system, adornment).strategy is strategy
        patterns = {tuple(row[i] if i in adornment else None
                          for i in range(arity)) for row in rows}
        for pattern in patterns:
            assert_bound_query_matches_oracle(
                system, db, expected, pattern,
                (CompiledEngine, TopDownEngine))
        if every_engine:
            for pattern in answer_patterns(expected, adornment, arity,
                                           domain):
                assert_bound_query_matches_oracle(
                    system, db, expected, pattern,
                    (NaiveEngine, SemiNaiveEngine))


class TestBoundQueries:
    """Every adornment, with constants bound, against the oracle."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(linear_systems(max_arity=3, max_edb_atoms=2),
           st.integers(0, 2), st.data())
    def test_random_systems_every_adornment(self, system, seed, data):
        db = tiny_edb(system, seed)
        expected = oracle_evaluate(system, db)
        domain = sorted(db.active_domain())
        for adornment in all_adornments(system.dimension):
            pattern = [data.draw(st.sampled_from(domain))
                       if i in adornment else None
                       for i in range(system.dimension)]
            assert_bound_query_matches_oracle(system, db, expected,
                                              pattern)

    def test_catalogue_every_adornment(self, catalogue_entry):
        system = catalogue_entry.system()
        db = tiny_edb(system, seed=0)
        expected = oracle_evaluate(system, db)
        domain = sorted(db.active_domain())
        for adornment in all_adornments(system.dimension):
            for pattern in answer_patterns(expected, adornment,
                                           system.dimension, domain):
                assert_bound_query_matches_oracle(system, db, expected,
                                                  pattern)

    @pytest.mark.parametrize("rules,relations", [
        pytest.param("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            P(x, x) :- U(x).
         """, {"A": chain(4), "E": [("n4", "n4"), ("n2", "n3")],
               "U": [("n1",), ("q",)]},
            id="multi-exit-repeated-head"),
        pytest.param("""
            P(x, y) :- A(x, z), B(y, w), P(z, w).
         """, {"A": chain(3), "B": [("m0", "n1"), ("m1", "m0"),
                                    ("n2", "n3"), ("n3", "n3")],
               "P__exit": [("n3", "n3"), ("n2", "n1"), ("n1", "m1")]},
            id="walked-free-position"),
        pytest.param("""
            P(x, y, z) :- A(x, u), B(y, v), P(u, v, z).
         """, {"A": chain(2), "B": [("m0", "m1"), ("m1", "m2"),
                                    ("n1", "m2")],
               "P__exit": [("n2", "m2", "n0"), ("n1", "m1", "m0"),
                           ("n1", "m2", "n2"), ("n0", "m0", "m1")]},
            id="ternary-pivot-and-filter"),
    ])
    def test_stable_paths(self, rules, relations):
        """The σ-first stable paths: several exits with a repeated
        head variable, a free position that walks its chain backward,
        and two bound positions (one probes the exit, one filters)."""
        assert_every_form_matches_oracle(
            parse_system(rules), Database.from_dict(relations),
            Strategy.STABLE)

    @pytest.mark.parametrize("rules,relations", [
        pytest.param("""
            P(x, y) :- B(y), C(x, y1), P(x1, y1).
            P(x, 'c') :- E(x).
         """, {"E": [("a",), ("b",)], "B": [("c",), ("d",)],
               "C": [("a", "c"), ("b", "c"), ("d", "c"), ("a", "d")]},
            id="D-constant-exit-head"),
        pytest.param("""
            P(x, y, z) :- P(y, z, x).
            P(x, y, 'c') :- E(x, y).
         """, {"E": [("a", "b"), ("c", "a"), ("b", "b")]},
            id="A4-constant-exit-head"),
        pytest.param("""
            P(x, y) :- B(y), C(x, y1), P(x1, y1).
            P(x, x) :- U(x).
         """, {"U": [("a",), ("c",)], "B": [("c",), ("d",)],
               "C": [("a", "c"), ("b", "c"), ("d", "a"), ("a", "d")]},
            id="D-repeated-exit-head"),
        pytest.param("""
            P(x, y) :- C(x, y_1), B(y_1, y), P(x_1, y_2).
         """, {"B": [("c0", "c1"), ("c1", "c1"), ("c2", "c1")],
               "C": [("c1", "c0"), ("c1", "c1"), ("c2", "c0")],
               "P__exit": [("c0", "c1"), ("c0", "c2"), ("c1", "c2"),
                           ("c2", "c2")]},
            id="D-subscripted-variables"),
    ])
    def test_bounded_paths(self, rules, relations):
        """Bounded expansions whose head carries a constant or a
        repeated variable at a query-bound position: the query binds
        it through the expansion's head terms.  A rule that names its
        variables like renamed ones (``y_1``) unfolds apart."""
        assert_every_form_matches_oracle(
            parse_system(rules), Database.from_dict(relations),
            Strategy.BOUNDED)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["s8", "s10", "dependent_bounded",
                                      "double_d"])
    def test_split_bodies(self, name, seed):
        """Bounded expansions the join kernel splits into components:
        a selection, Cartesian products of groups that read no query
        constant, and existence checks of groups that bind no answer
        column — on every engine."""
        system = (CATALOGUE.get(name) or EXTRA_CATALOGUE[name]).system()
        db = random_edb(system, nodes=3, tuples_per_relation=6, seed=seed)
        assert_every_form_matches_oracle(system, db, Strategy.BOUNDED,
                                         every_engine=True)

    @pytest.mark.parametrize("b_rows", [[], [("p", "q")]],
                             ids=["B-empty", "B-present"])
    def test_stable_detached_atom(self, b_rows):
        """A stable rule whose ``B(u, v)`` no chain carries: its
        existence check gates every depth past the first."""
        system = parse_system("P(x, y) :- A(x, z), B(u, v), P(z, y).")
        db = Database.from_dict({"A": chain(3),
                                 "P__exit": [("n3", "n3"), ("n1", "q")]})
        db.declare("B", 2)
        for row in b_rows:
            db.add("B", row)
        assert_every_form_matches_oracle(system, db, Strategy.STABLE,
                                         every_engine=True)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rules", [
        pytest.param("P(x, y, z) :- A(x, w), C(w, y), B(u, v), "
                     "P(u, z, v).", id="C-two-atom-detached"),
        pytest.param("P(x, y, z) :- A(x, y), B(u, v), C(v), P(u, z, v).",
                     id="C-decorated-auxiliary"),
        pytest.param("P(x, y, z, w) :- A(x, y), B(u, v), P(u, z, v, w).",
                     id="F-binary-auxiliary"),
        pytest.param("P(z, x, y) :- A(x, y), B(u, v), P(v, u, z).",
                     id="C-detached-after-auxiliary"),
        pytest.param("""
            P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).
            P(x, y, z) :- E(x, y, z).
            P(x, 'k', x) :- F(x).
         """, id="C-constant-repeated-exit"),
    ])
    def test_auxiliary_paths(self, rules, seed):
        """Example 9's plan, σE ∪ (σ detached) × R, on every form: a
        detached component of two atoms, a decoration in R's part, a
        binary R beside a permutational position, s9 with its head
        positions rotated (R's column comes first), and an exit whose
        head carries a constant and a repeated variable."""
        system = parse_system(rules)
        for adornment in all_adornments(system.dimension):
            assert compile_query(system, adornment).auxiliary is not None
        assert_every_form_matches_oracle(
            system, random_edb(system, nodes=4, tuples_per_relation=5,
                               seed=seed),
            Strategy.ITERATIVE)
