"""Engine tests: each engine alone, then pairwise agreement on the
whole catalogue with several query forms."""

import pytest

from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, EvaluationStats, NaiveEngine,
                          Query, SemiNaiveEngine)
from repro.ra import Database
from repro.workloads import CATALOGUE, chain, random_edb, reflexive_exit


class TestNaive:
    def test_transitive_closure(self, tc_system, tc_chain_db):
        answers = NaiveEngine().evaluate(tc_system, tc_chain_db)
        assert len(answers) == 7 * 8 // 2  # all i <= j pairs

    def test_query_filter(self, tc_system, tc_chain_db):
        answers = NaiveEngine().evaluate(tc_system, tc_chain_db,
                                         Query.parse("P(n0, Y)"))
        assert len(answers) == 7

    def test_edb_not_mutated(self, tc_system, tc_chain_db):
        before = tc_chain_db.total_facts()
        NaiveEngine().evaluate(tc_system, tc_chain_db)
        assert tc_chain_db.total_facts() == before

    def test_handles_multiple_exit_rules(self):
        system = parse_system("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            P(x, x) :- V(x).
        """)
        db = Database.from_dict({"A": chain(2), "E": [("n2", "n2")],
                                 "V": [("n9",)]})
        answers = NaiveEngine().evaluate(system, db)
        assert ("n9", "n9") in answers
        assert ("n0", "n2") in answers


class TestSemiNaive:
    def test_matches_naive_on_chain(self, tc_system, tc_chain_db):
        naive = NaiveEngine().evaluate(tc_system, tc_chain_db)
        semi = SemiNaiveEngine().evaluate(tc_system, tc_chain_db)
        assert naive == semi

    def test_cyclic_data_terminates(self, tc_system):
        db = Database.from_dict({
            "A": [("a", "b"), ("b", "c"), ("c", "a")],
            "P__exit": [("a", "a"), ("b", "b"), ("c", "c")],
        })
        answers = SemiNaiveEngine().evaluate(tc_system, db)
        assert len(answers) == 9  # complete relation on 3 nodes

    def test_delta_sizes_recorded(self, tc_system, tc_chain_db):
        stats = EvaluationStats()
        SemiNaiveEngine().evaluate(tc_system, tc_chain_db, stats=stats)
        assert stats.delta_sizes[0] == 7          # exit round
        assert stats.delta_sizes[-1] == 0         # fixpoint round
        assert sum(stats.delta_sizes) == 28

    def test_measured_rank_on_chain(self, tc_system, tc_chain_db):
        assert SemiNaiveEngine().measured_rank(
            tc_system, tc_chain_db) == 6

    def test_max_rounds_truncates(self, tc_system, tc_chain_db):
        partial = SemiNaiveEngine().evaluate(tc_system, tc_chain_db,
                                             max_rounds=1)
        full = SemiNaiveEngine().evaluate(tc_system, tc_chain_db)
        assert partial < full

    def test_does_fewer_probes_than_naive(self, tc_system, tc_chain_db):
        naive_stats, semi_stats = EvaluationStats(), EvaluationStats()
        NaiveEngine().evaluate(tc_system, tc_chain_db, stats=naive_stats)
        SemiNaiveEngine().evaluate(tc_system, tc_chain_db,
                                   stats=semi_stats)
        assert semi_stats.probes < naive_stats.probes


class TestCompiled:
    def test_selective_query_does_less_work(self, tc_system):
        db = Database.from_dict({
            "A": chain(40),
            "P__exit": reflexive_exit(40),
        })
        semi_stats, comp_stats = EvaluationStats(), EvaluationStats()
        query = Query.parse("P(n0, Y)")
        semi = SemiNaiveEngine().evaluate(tc_system, db, query,
                                          semi_stats)
        comp = CompiledEngine().evaluate(tc_system, db, query, comp_stats)
        assert semi == comp
        assert comp_stats.probes < semi_stats.probes / 5

    def test_bounded_strategy_needs_no_fixpoint(self):
        system = CATALOGUE["s8"].system()
        db = random_edb(system, nodes=6, tuples_per_relation=10, seed=2)
        stats = EvaluationStats()
        answers = CompiledEngine().evaluate(
            system, db, Query.all_free("P", 4), stats)
        assert answers == SemiNaiveEngine().evaluate(system, db)

    def test_fully_bound_query(self, tc_system, tc_chain_db):
        yes = CompiledEngine().evaluate(tc_system, tc_chain_db,
                                        Query.parse("P(n0, n6)"))
        no = CompiledEngine().evaluate(tc_system, tc_chain_db,
                                       Query.parse("P(n6, n0)"))
        assert yes == {("n0", "n6")}
        assert no == frozenset()

    def test_empty_exit_relation(self, tc_system):
        db = Database.from_dict({"A": chain(3)})
        db.declare("P__exit", 2)
        assert CompiledEngine().evaluate(
            tc_system, db, Query.parse("P(n0, Y)")) == frozenset()

    def test_empty_chain_relation(self, tc_system):
        db = Database.from_dict({"P__exit": [("a", "a")]})
        answers = CompiledEngine().evaluate(tc_system, db,
                                            Query.parse("P(a, Y)"))
        assert answers == {("a", "a")}

    def test_cyclic_chain_terminates(self, tc_system):
        db = Database.from_dict({
            "A": [("a", "b"), ("b", "a")],
            "P__exit": [("a", "a"), ("b", "b")],
        })
        answers = CompiledEngine().evaluate(tc_system, db,
                                            Query.parse("P(a, Y)"))
        assert answers == {("a", "a"), ("a", "b")}


QUERY_SEEDS = [0, 1]


class TestAgreementAcrossCatalogue:
    """All three engines agree on every catalogue formula for every
    declared query form, over random databases."""

    @pytest.mark.parametrize("seed", QUERY_SEEDS)
    def test_engines_agree(self, catalogue_entry, seed):
        system = catalogue_entry.system()
        db = random_edb(system, nodes=6, tuples_per_relation=8,
                        seed=seed)
        domain = sorted(db.active_domain()) or ["c0"]
        forms = catalogue_entry.query_forms or ("v" * system.dimension,)
        for form in forms:
            pattern = tuple(domain[i % len(domain)] if ch == "d" else None
                            for i, ch in enumerate(form))
            query = Query(system.predicate, pattern)
            naive = NaiveEngine().evaluate(system, db, query)
            semi = SemiNaiveEngine().evaluate(system, db, query)
            comp = CompiledEngine().evaluate(system, db, query)
            assert naive == semi == comp, (
                f"{catalogue_entry.name} {query}: "
                f"naive={len(naive)} semi={len(semi)} comp={len(comp)}")


class TestNaiveOverPrograms:
    """NaiveEngine accepts plain multi-rule Programs (the session's
    materialiser relies on the same rule-application core)."""

    def test_two_idb_predicates(self):
        from repro.datalog import parse_program
        program = parse_program("""
            anc(x, y) :- parent(x, z), anc(z, y).
            anc(x, y) :- parent(x, y).
            named(x, y) :- anc(x, y), label(y).
        """)
        db = Database.from_dict({
            "parent": [("a", "b"), ("b", "c")],
            "label": [("c",)],
        })
        answers = NaiveEngine().evaluate(
            program, db, Query.all_free("named", 2))
        assert answers == {("a", "c"), ("b", "c")}

    def test_query_selects_the_predicate(self):
        from repro.datalog import parse_program
        program = parse_program("""
            p(x) :- e(x).
            q(x) :- p(x), f(x).
        """)
        db = Database.from_dict({"e": [("1",), ("2",)],
                                 "f": [("2",)]})
        assert NaiveEngine().evaluate(
            program, db, Query.all_free("q", 1)) == {("2",)}
        assert NaiveEngine().evaluate(
            program, db, Query.all_free("p", 1)) == {("1",), ("2",)}

    def test_several_idb_predicates_need_a_query(self):
        """Without a query, a program with two IDB predicates has no
        single answer relation; the engine names both instead of
        returning whichever one set iteration happens to yield."""
        from repro.datalog import parse_program
        from repro.datalog.errors import EvaluationError
        program = parse_program("""
            Q(x) :- A(x, y).
            P(x, y) :- Q(x), A(x, y).
        """)
        db = Database.from_dict({"A": [("a", "b"), ("b", "c")]})
        with pytest.raises(EvaluationError, match="P, Q"):
            NaiveEngine().evaluate(program, db)

    def test_trace_names_the_queried_predicate(self):
        from repro.datalog import parse_program
        from repro.engine.trace import Tracer
        program = parse_program("""
            Q(x) :- A(x, y).
            P(x, y) :- Q(x), A(x, y).
        """)
        db = Database.from_dict({"A": [("a", "b"), ("b", "c")]})
        for predicate, arity in (("P", 2), ("Q", 1)):
            tracer = Tracer()
            NaiveEngine().evaluate(program, db,
                                   Query.all_free(predicate, arity),
                                   trace=tracer)
            assert tracer.trace.predicate == predicate
