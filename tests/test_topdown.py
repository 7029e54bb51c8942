"""Tests for the tabled top-down (QSQR) engine."""

import pytest

from repro.engine import (CompiledEngine, EvaluationStats, Query,
                          SemiNaiveEngine, TopDownEngine)
from repro.ra import Database
from repro.workloads import CATALOGUE, chain, random_edb, reflexive_exit


class TestBasics:
    def test_bound_query_on_chain(self, tc_system, tc_chain_db):
        answers = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                           Query.parse("P(n0, Y)"))
        assert len(answers) == 7

    def test_free_query(self, tc_system, tc_chain_db):
        answers = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                           Query.parse("P(X, Y)"))
        assert answers == SemiNaiveEngine().evaluate(tc_system,
                                                     tc_chain_db)

    def test_boolean_query(self, tc_system, tc_chain_db):
        yes = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                       Query.parse("P(n0, n6)"))
        no = TopDownEngine().evaluate(tc_system, tc_chain_db,
                                      Query.parse("P(n6, n0)"))
        assert yes == {("n0", "n6")}
        assert no == frozenset()

    def test_cyclic_data_terminates(self, tc_system):
        db = Database.from_dict({
            "A": [("a", "b"), ("b", "a")],
            "P__exit": [("a", "a"), ("b", "b")],
        })
        answers = TopDownEngine().evaluate(tc_system, db,
                                           Query.parse("P(a, Y)"))
        assert answers == {("a", "a"), ("a", "b")}

    def test_empty_exit(self, tc_system):
        db = Database.from_dict({"A": chain(3)})
        db.declare("P__exit", 2)
        assert TopDownEngine().evaluate(
            tc_system, db, Query.parse("P(n0, Y)")) == frozenset()


class TestGoalDirection:
    def test_only_reachable_subgoals_tabled(self, tc_system):
        """A bound query touches the queried chain suffix only."""
        db = Database.from_dict({
            "A": chain(20) + [("m0", "m1"), ("m1", "m2")],
            "P__exit": reflexive_exit(20) + [("m2", "m2")],
        })
        bound, free = EvaluationStats(), EvaluationStats()
        TopDownEngine().evaluate(tc_system, db, Query.parse("P(m0, Y)"),
                                 bound)
        TopDownEngine().evaluate(tc_system, db, Query.parse("P(X, Y)"),
                                 free)
        assert bound.probes < free.probes / 5

    def test_compiled_beats_interpreted_topdown(self, tc_system):
        """The paper's point: compile the top-down strategy instead of
        interpreting it."""
        db = Database.from_dict({"A": chain(30),
                                 "P__exit": reflexive_exit(30)})
        interpreted, compiled = EvaluationStats(), EvaluationStats()
        query = Query.parse("P(n0, Y)")
        a1 = TopDownEngine().evaluate(tc_system, db, query, interpreted)
        a2 = CompiledEngine().evaluate(tc_system, db, query, compiled)
        assert a1 == a2
        assert compiled.probes * 10 < interpreted.probes


class TestAgreement:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_seminaive_on_catalogue(self, catalogue_entry, seed):
        system = catalogue_entry.system()
        db = random_edb(system, nodes=5, tuples_per_relation=7,
                        seed=seed)
        domain = sorted(db.active_domain()) or ["c0"]
        forms = catalogue_entry.query_forms or (
            "v" * system.dimension,)
        for form in forms:
            pattern = tuple(
                domain[i % len(domain)] if ch == "d" else None
                for i, ch in enumerate(form))
            query = Query(system.predicate, pattern)
            top_down = TopDownEngine().evaluate(system, db, query)
            semi = SemiNaiveEngine().evaluate(system, db, query)
            assert top_down == semi, (catalogue_entry.name, query)


class TestGoalView:
    def test_count_keeps_a_running_total(self, monkeypatch):
        """Regression: ``count`` summed every table's size on each call,
        and the solver ranks atoms by it at every step — quadratic in
        the subgoals (93% of an s11 profile).  The spy tables refuse
        iteration; ``count`` still equals their total size."""
        from repro.engine import topdown

        class Tables(dict):
            def __iter__(self):
                raise AssertionError("count iterated the tables")

            def values(self):
                raise AssertionError("count iterated the tables")

            items = keys = values

        views = []
        init = topdown._GoalView.__init__

        def spied(self, base, predicate):
            init(self, base, predicate)
            self.tables = Tables()
            views.append(self)

        monkeypatch.setattr(topdown._GoalView, "__init__", spied)
        system = CATALOGUE["s11"].system()
        db = random_edb(system, nodes=6, tuples_per_relation=12, seed=1)
        query = Query.parse("P(c1, Y)")
        answers = TopDownEngine().evaluate(system, db, query)
        assert answers == SemiNaiveEngine().evaluate(system, db, query)
        (view,) = views
        assert len(view.tables) > 1
        assert view.count(system.predicate) == sum(
            len(rows) for rows in dict.values(view.tables)) > 0
