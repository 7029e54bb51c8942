"""Unit tests for determined variables, adornments, binding sequences."""

import pytest

from repro.core.bindings import (adornment_from_string,
                                 adornment_to_string, all_adornments,
                                 binding_sequence, body_adornment,
                                 determined_closure)
from repro.datalog.errors import DatalogSyntaxError
from repro.datalog.parser import parse_rule
from repro.datalog.rules import RecursiveRule
from repro.datalog.terms import Variable
from repro.graphs.igraph import build_igraph

V = Variable


def recursive(text: str) -> RecursiveRule:
    return RecursiveRule(parse_rule(text), strict=False)


class TestAdornmentNotation:
    def test_round_trip(self):
        for pattern in ("dvv", "vdv", "ddd", "vvv", "dv"):
            parsed = adornment_from_string(pattern)
            assert adornment_to_string(parsed, len(pattern)) == pattern

    def test_bf_synonyms(self):
        assert adornment_from_string("bf") == adornment_from_string("dv")

    def test_rejects_garbage(self):
        with pytest.raises(DatalogSyntaxError):
            adornment_from_string("dxv")
        with pytest.raises(DatalogSyntaxError):
            adornment_from_string("")

    def test_all_adornments_count(self):
        assert len(all_adornments(3)) == 8
        assert frozenset() in all_adornments(2)
        assert frozenset({0, 1}) in all_adornments(2)


class TestDeterminedClosure:
    def test_propagates_over_undirected_edges(self):
        rule = recursive(
            "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).")
        graph = build_igraph(rule)
        closure = determined_closure(graph, [V("x")])
        assert closure == {V("x"), V("x1"), V("y1"), V("y")}

    def test_does_not_cross_directed_edges(self):
        rule = recursive("P(x, y) :- A(x, z), P(z, y).")
        graph = build_igraph(rule)
        closure = determined_closure(graph, [V("y")])
        assert closure == {V("y")}  # the self-loop arrow carries nothing

    def test_empty_seed(self):
        rule = recursive("P(x, y) :- A(x, z), P(z, y).")
        assert determined_closure(build_igraph(rule), []) == frozenset()


class TestBodyAdornment:
    def test_tc_stable_mapping(self):
        rule = recursive("P(x, y) :- A(x, z), P(z, y).")
        assert body_adornment(rule, frozenset({0})) == {0}
        assert body_adornment(rule, frozenset({1})) == {1}
        assert body_adornment(rule, frozenset({0, 1})) == {0, 1}
        assert body_adornment(rule, frozenset()) == frozenset()

    def test_theorem1_counterexample_shifts_position(self):
        rule = recursive("P(x, y) :- A(x, z), P(y, z).")
        assert body_adornment(rule, frozenset({0})) == {1}

    def test_s12_gains_position(self):
        rule = recursive(
            "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), "
            "P(u, v, w).")
        assert body_adornment(rule, frozenset({0})) == {0, 1}

    def test_class_d_loses_binding(self):
        rule = recursive("P(x, y) :- B(y), C(x, y1), P(x1, y1).")
        assert body_adornment(rule, frozenset({0})) == {1}
        assert body_adornment(rule, frozenset({1})) == frozenset()


class TestBindingSequence:
    def test_s12_paper_sequence(self):
        """incoming P(d,v,v) → P(d,d,v) → P(d,d,v) → … (Example 14)."""
        rule = recursive(
            "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), "
            "P(u, v, w).")
        seq = binding_sequence(rule, adornment_from_string("dvv"))
        assert seq.describe(3) == "dvv → (ddv)*"
        assert seq.state_at(0) == {0}
        assert seq.state_at(1) == {0, 1}
        assert seq.state_at(7) == {0, 1}
        assert seq.stabilises

    def test_s12_vvd_stable_from_start(self):
        """'for a query P(v,v,d), the formula is stable from the
        beginning' — the A1 component keeps position 3 bound."""
        rule = recursive(
            "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), "
            "P(u, v, w).")
        seq = binding_sequence(rule, adornment_from_string("vvd"))
        assert seq.state_at(0) == {2}
        assert seq.state_at(1) == {2}
        assert seq.persistent_positions == {2}

    def test_permutational_rotation(self):
        rule = recursive("P(x, y, z) :- P(y, z, x).")
        seq = binding_sequence(rule, adornment_from_string("dvv"))
        assert seq.period == 3
        assert seq.prefix_length == 0
        states = [adornment_to_string(seq.state_at(k), 3)
                  for k in range(4)]
        assert states == ["dvv", "vvd", "vdv", "dvv"]
        assert seq.persistent_positions == frozenset()

    def test_stable_formula_fixes_immediately(self):
        rule = recursive("P(x, y) :- A(x, z), P(z, y).")
        seq = binding_sequence(rule, adornment_from_string("dv"))
        assert seq.period == 1
        assert seq.prefix_length == 0
        assert seq.persistent_positions == {0}

    def test_s9_binding_dies(self):
        rule = recursive("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).")
        seq = binding_sequence(rule, adornment_from_string("dvv"))
        assert seq.state_at(1) == frozenset()
        assert seq.persistent_positions == frozenset()

    def test_s9_vvd_travels_then_dies(self):
        rule = recursive("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).")
        seq = binding_sequence(rule, adornment_from_string("vvd"))
        assert seq.state_at(0) == {2}
        assert seq.state_at(1) == {1}
        assert seq.state_at(2) == frozenset()
