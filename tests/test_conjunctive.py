"""Unit tests for the selection-first conjunctive-query solver."""

from repro.datalog.parser import parse_atom
from repro.datalog.terms import Variable
from repro.engine.conjunctive import (pattern_of, satisfiable, solve,
                                      solve_project)
from repro.engine.stats import EvaluationStats
from repro.ra.database import Database

V = Variable


def atoms(*texts: str):
    return [parse_atom(t) for t in texts]


def make_db():
    # the solver's contract is storage space: bindings go in through
    # encode_const and solutions come out through decode_row
    return Database.from_dict({
        "A": [("a", "b"), ("b", "c"), ("c", "d")],
        "B": [("b", "x1"), ("c", "x2")],
        "N": [("a",)],
    })


class TestPatternOf:
    def test_binding_fills_pattern(self):
        pattern = pattern_of(parse_atom("A(x, y)"), {V("x"): "a"})
        assert pattern == ("a", None)

    def test_constants_pass_through(self):
        pattern = pattern_of(parse_atom("A(x, 'k')"), {})
        assert pattern == (None, "k")


class TestSolve:
    def test_two_hop_join(self):
        db = make_db()
        solutions = list(solve(db, atoms("A(x, y)", "A(y, z)")))
        found = {db.decode_row((s[V("x")], s[V("z")])) for s in solutions}
        assert found == {("a", "c"), ("b", "d")}

    def test_initial_binding_restricts(self):
        db = make_db()
        solutions = list(solve(db, atoms("A(x, y)"),
                               {V("x"): db.encode_const("a")}))
        assert len(solutions) == 1
        assert db.decode_row((solutions[0][V("y")],)) == ("b",)

    def test_repeated_variable_within_atom(self):
        db = Database.from_dict({"A": [("a", "a"), ("a", "b")]})
        solutions = list(solve(db, atoms("A(x, x)")))
        assert [s[V("x")] for s in solutions] == [db.encode_const("a")]

    def test_cross_atom_sharing(self):
        db = make_db()
        solutions = list(solve(db, atoms("A(x, y)", "B(y, w)")))
        assert {db.decode_row((s[V("w")],)) for s in solutions} == {
            ("x1",), ("x2",)}

    def test_empty_conjunction_has_one_solution(self):
        assert list(solve(make_db(), [])) == [{}]

    def test_unsatisfiable(self):
        assert list(solve(make_db(), atoms("A(x, x)"))) == []

    def test_probe_counting(self):
        stats = EvaluationStats()
        list(solve(make_db(), atoms("A(x, y)", "A(y, z)"), stats=stats))
        assert stats.probes > 0

    def test_selection_first_order_reduces_probes(self):
        """Binding x should make the A(x,y) atom be probed first and
        keep probe counts far below the unbound evaluation."""
        bound_stats = EvaluationStats()
        db = make_db()
        list(solve(db, atoms("A(x, y)", "A(y, z)"),
                   {V("x"): db.encode_const("a")}, stats=bound_stats))
        free_stats = EvaluationStats()
        list(solve(make_db(), atoms("A(x, y)", "A(y, z)"),
                   stats=free_stats))
        assert bound_stats.probes < free_stats.probes


class TestSolveProject:
    def test_projects_onto_head_terms(self):
        db = make_db()
        rows = solve_project(db, atoms("A(x, y)", "A(y, z)"),
                             (V("x"), V("z")))
        assert {db.decode_row(row) for row in rows} == {
            ("a", "c"), ("b", "d")}

    def test_derived_counter(self):
        stats = EvaluationStats()
        solve_project(make_db(), atoms("A(x, y)"), (V("x"),),
                      stats=stats)
        assert stats.derived == 3


class TestSatisfiable:
    def test_existence_check(self):
        assert satisfiable(make_db(), atoms("A(x, y)", "B(y, w)"))
        assert not satisfiable(make_db(), atoms("A(x, x)"))

    def test_short_circuits(self):
        stats = EvaluationStats()
        satisfiable(make_db(), atoms("A(x, y)"), stats=stats)
        assert stats.probes == 1
