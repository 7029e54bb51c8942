"""Incremental maintenance: agrees with from-scratch at every step."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.errors import EvaluationError
from repro.datalog.parser import parse_system
from repro.engine import SemiNaiveEngine
from repro.engine.incremental import MaterializedRecursion
from repro.ra import Database
from repro.workloads import CATALOGUE, random_edb

from .strategies import linear_systems

RELAXED = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture
def tc_view():
    system = parse_system(
        "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
    db = Database.from_dict({"A": [("a", "b")], "E": [("c", "c")]})
    return MaterializedRecursion(system, db), system


class TestBasics:
    def test_initial_materialisation(self, tc_view):
        view, _ = tc_view
        assert view.rows == {("c", "c")}

    def test_insert_extends_chain(self, tc_view):
        view, _ = tc_view
        added = view.insert("A", ("b", "c"))
        assert added == {("b", "c"), ("a", "c")}
        assert ("a", "c") in view

    def test_insert_exit_fact(self, tc_view):
        view, _ = tc_view
        view.insert("A", ("b", "c"))
        added = view.insert("E", ("b", "b"))
        assert ("b", "b") in added
        assert ("a", "b") in added  # via the existing A edge

    def test_duplicate_insert_is_noop(self, tc_view):
        view, _ = tc_view
        view.insert("A", ("b", "c"))
        assert view.insert("A", ("b", "c")) == frozenset()

    def test_len_and_repr(self, tc_view):
        view, _ = tc_view
        assert len(view) == 1
        assert "P" in repr(view)

    def test_unrelated_predicate_insert(self, tc_view):
        view, _ = tc_view
        assert view.insert("Zzz", ("q",)) == frozenset()

    def test_fixpoint_replaces_stored_p_rows(self):
        """P rows the base EDB stores give way to the fixpoint: the
        view's database holds exactly the derived relation."""
        system = parse_system(
            "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
        db = Database.from_dict({"A": [("a", "b")], "E": [("b", "b")],
                                 "P": [("q", "q"), ("b", "b")]})
        view = MaterializedRecursion(system, db)
        assert view.rows == {("a", "b"), ("b", "b")}
        assert view.database.rows("P") == view.rows
        assert ("q", "q") not in view
        assert db.rows("P") == {("q", "q"), ("b", "b")}  # base intact

    def test_inserting_into_p_raises(self, tc_view):
        """P is derived, never inserted: a P row would seed
        derivations the view itself does not hold."""
        view, _ = tc_view
        before = view.rows
        with pytest.raises(EvaluationError, match="materialised"):
            view.insert("P", ("a", "a"))
        with pytest.raises(EvaluationError, match="materialised"):
            view.insert_many("P", [("a", "a")])
        assert view.rows == before
        assert ("a", "a") not in view


class TestAgainstFromScratch:
    def test_chain_built_edge_by_edge(self):
        system = parse_system(
            "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
        db = Database.from_dict({"E": [("n5", "n5")]})
        view = MaterializedRecursion(system, db)
        for i in reversed(range(5)):
            view.insert("A", (f"n{i}", f"n{i + 1}"))
            scratch = SemiNaiveEngine().evaluate(system, view.database)
            assert view.rows == scratch
        assert ("n0", "n5") in view

    def test_insert_order_does_not_matter(self):
        system = parse_system(
            "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        forward = MaterializedRecursion(
            system, Database.from_dict({"E": [("d", "d")]}))
        backward = MaterializedRecursion(
            system, Database.from_dict({"E": [("d", "d")]}))
        for edge in edges:
            forward.insert("A", edge)
        for edge in reversed(edges):
            backward.insert("A", edge)
        assert forward.rows == backward.rows

    @pytest.mark.parametrize("name", ["s3", "s8", "s10", "s11", "s12"])
    def test_catalogue_formulas_incrementally(self, name):
        system = CATALOGUE[name].system()
        full = random_edb(system, nodes=4, tuples_per_relation=6,
                          seed=3)
        view = MaterializedRecursion(system)  # start empty
        for relation in full.relation_names:
            for row in sorted(full.rows(relation), key=repr):
                view.insert(relation, row)
        scratch = SemiNaiveEngine().evaluate(system, full)
        assert view.rows == scratch


class TestIncrementalProperty:
    @RELAXED
    @given(linear_systems(max_arity=2, max_edb_atoms=2),
           st.integers(0, 3))
    def test_stepwise_equals_scratch(self, system, seed):
        full = random_edb(system, nodes=4, tuples_per_relation=5,
                          seed=seed)
        view = MaterializedRecursion(system)
        inserted = Database()
        for relation in full.relation_names:
            for row in sorted(full.rows(relation), key=repr):
                view.insert(relation, row)
                inserted.add(relation, row)
                assert view.rows == SemiNaiveEngine().evaluate(
                    system, inserted)
