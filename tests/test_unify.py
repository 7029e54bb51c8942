"""Unit tests for repro.datalog.unify."""

from repro.datalog.atoms import atom, fact
from repro.datalog.parser import parse_rule
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import (apply_to_atom, apply_to_rule,
                                 apply_to_term, compose, match_atom,
                                 rename_apart, rename_rule, unify_atoms)

X, Y, Z, U = (Variable(n) for n in "xyzu")


class TestApply:
    def test_apply_to_term(self):
        assert apply_to_term({X: Y}, X) == Y
        assert apply_to_term({X: Y}, Z) == Z
        assert apply_to_term({X: Y}, Constant("a")) == Constant("a")

    def test_apply_to_atom(self):
        applied = apply_to_atom({X: Constant("a")}, atom("A", "x", "y"))
        assert str(applied) == "A(a, y)"

    def test_apply_to_rule_touches_head_and_body(self):
        rule = parse_rule("P(x, y) :- A(x, z), P(z, y).")
        renamed = apply_to_rule({X: U}, rule)
        assert str(renamed) == "P(u, y) :- A(u, z) ∧ P(z, y)."


class TestCompose:
    def test_sequential_effect(self):
        composed = compose({X: Y}, {Y: Z})
        assert composed[X] == Z
        assert composed[Y] == Z

    def test_second_bindings_kept_when_not_shadowed(self):
        composed = compose({X: Y}, {Z: Constant("a")})
        assert composed[Z] == Constant("a")


class TestUnifyAtoms:
    def test_unifies_renamed_heads(self):
        mgu = unify_atoms(atom("P", "x1", "y1"), atom("P", "z", "u"))
        assert mgu is not None
        applied = apply_to_atom(mgu, atom("P", "x1", "y1"))
        assert applied == apply_to_atom(mgu, atom("P", "z", "u"))

    def test_respects_constants(self):
        assert unify_atoms(atom("P", Constant("a")),
                           atom("P", Constant("b"))) is None
        mgu = unify_atoms(atom("P", "x"), atom("P", Constant("a")))
        assert mgu == {X: Constant("a")}

    def test_different_predicates_fail(self):
        assert unify_atoms(atom("P", "x"), atom("Q", "x")) is None

    def test_different_arities_fail(self):
        assert unify_atoms(atom("P", "x"), atom("P", "x", "y")) is None

    def test_repeated_variable_forces_equality(self):
        mgu = unify_atoms(atom("P", "x", "x"), atom("P", "y", "z"))
        assert mgu is not None
        y_image = apply_to_term(mgu, Y)
        z_image = apply_to_term(mgu, Z)
        x_image = apply_to_term(mgu, X)
        assert y_image == z_image == x_image or len(
            {apply_to_term(mgu, t) for t in (X, Y, Z)}) == 1

    def test_chained_bindings_are_normalised(self):
        mgu = unify_atoms(atom("P", "x", "y", "x"),
                          atom("P", "y", "z", "u"))
        assert mgu is not None
        images = {apply_to_term(mgu, t) for t in (X, Y, Z)}
        assert len(images) == 1


class TestMatchAtom:
    def test_matches_ground_atom(self):
        bindings = match_atom(atom("A", "x", "y"), fact("A", "a", "b"))
        assert bindings == {X: Constant("a"), Y: Constant("b")}

    def test_constant_mismatch(self):
        assert match_atom(atom("A", Constant("a"), "y"),
                          fact("A", "b", "c")) is None

    def test_repeated_variable_must_agree(self):
        assert match_atom(atom("A", "x", "x"), fact("A", "a", "b")) is None
        assert match_atom(atom("A", "x", "x"),
                          fact("A", "a", "a")) is not None


class TestRenameRule:
    def test_all_variables_get_subscript(self):
        rule = parse_rule("P(x, y) :- A(x, z), P(z, y).")
        renamed = rename_rule(rule, 3)
        assert str(renamed) == "P(x_3, y_3) :- A(x_3, z_3) ∧ P(z_3, y_3)."

    def test_renaming_shares_no_variables_with_original(self):
        rule = parse_rule("P(x, y) :- A(x, z), P(z, y).")
        renamed = rename_rule(rule, 1)
        assert not (rule.variables & renamed.variables)

    def test_rename_apart_skips_taken_subscripts(self):
        rule = parse_rule("P(x, y) :- A(x, y_1), P(y_1, y).")
        assert rename_rule(rule, 1).variables & rule.variables
        assert str(rename_apart(rule, rule.variables)) == \
            "P(x_2, y_2) :- A(x_2, y_1_2) ∧ P(y_1_2, y_2)."
        assert rename_apart(rule, frozenset(), 3) == rename_rule(rule, 3)
