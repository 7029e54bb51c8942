"""Unit tests for programs, recursion systems, and expansion/unfolding.

The expansion tests pin down the paper's own derivations: (s2c) is the
second expansion of (s2a), and (s4c)/(s4d) are the second and third
expansions of (s4a) up to variable renaming.
"""

import pytest

from repro.datalog.atoms import fact
from repro.datalog.errors import RuleValidationError
from repro.datalog.parser import parse_program, parse_rule, parse_system
from repro.datalog.program import Program, RecursionSystem


class TestProgram:
    def test_facts_must_be_ground(self):
        with pytest.raises(RuleValidationError, match="ground"):
            Program(facts=(parse_rule("P(x) :- P(x).").head,))

    def test_with_facts_appends(self):
        program = Program()
        extended = program.with_facts([fact("A", "a", "b")])
        assert len(extended.facts) == 1
        assert len(program.facts) == 0

    def test_recursive_rules_found(self):
        program = parse_program("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
        """)
        assert len(program.recursive_rules()) == 1

    def test_str_round_trips_through_parser(self):
        program = parse_program("P(x, y) :- A(x, y).\nA(a, b).")
        again = parse_program(str(program).replace("∧", ","))
        assert again.rules == program.rules
        assert again.facts == program.facts


class TestRecursionSystemValidation:
    def test_exit_arity_checked(self):
        with pytest.raises(RuleValidationError, match="arity"):
            RecursionSystem(parse_rule("P(x, y) :- A(x, z), P(z, y)."),
                            (parse_rule("P(x) :- E(x)."),))

    def test_exit_predicate_checked(self):
        with pytest.raises(RuleValidationError, match="head must be"):
            RecursionSystem(parse_rule("P(x, y) :- A(x, z), P(z, y)."),
                            (parse_rule("Q(x, y) :- E(x, y)."),))

    def test_exit_must_be_nonrecursive(self):
        with pytest.raises(RuleValidationError, match="non-recursive"):
            RecursionSystem(parse_rule("P(x, y) :- A(x, z), P(z, y)."),
                            (parse_rule("P(x, y) :- P(x, y)."),))

    def test_exit_must_be_range_restricted(self):
        with pytest.raises(RuleValidationError, match="range"):
            RecursionSystem(parse_rule("P(x, y) :- A(x, z), P(z, y)."),
                            (parse_rule("P(x, y) :- E(x)."),))

    def test_edb_predicates_collected(self):
        system = parse_system("""
            P(x, y) :- A(x, z), P(z, u), B(u, y).
            P(x, y) :- E(x, y).
        """)
        assert system.edb_predicates == {"A", "B", "E"}
        assert system.exit_predicates == {"E"}


class TestExpansion:
    def test_first_expansion_is_the_rule(self, tc_system):
        assert tc_system.expansion(1) == tc_system.recursive.rule

    def test_paper_s2c(self):
        """The 2nd expansion of (s2a) is the paper's (s2c)."""
        system = parse_system("P(x, y) :- A(x, z), P(z, u), B(u, y).")
        expanded = str(system.expansion(2))
        assert expanded == ("P(x, y) :- A(x, z) ∧ A(z, z_1) ∧ "
                            "P(z_1, u_1) ∧ B(u_1, u) ∧ B(u, y).")

    def test_expansion_k_has_k_body_copies(self, tc_system):
        for k in (1, 2, 3, 5):
            expanded = tc_system.expansion(k)
            assert len(expanded.body_atoms_of("A")) == k
            assert len(expanded.body_atoms_of("P")) == 1

    def test_expansion_preserves_head(self, tc_system):
        for k in (2, 4):
            assert tc_system.expansion(k).head == tc_system.recursive.head

    def test_expansion_level_must_be_positive(self, tc_system):
        with pytest.raises(ValueError):
            tc_system.expansion(0)

    def test_s4_third_expansion_matches_s4d_shape(self):
        """(s4d): nine EDB atoms, three per relation."""
        system = parse_system(
            "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), "
            "P(y1, y2, y3).")
        third = system.expansion(3)
        for predicate in "ABC":
            assert len(third.body_atoms_of(predicate)) == 3


class TestExitExpansion:
    def test_depth_one_is_the_exit_rule(self, tc_system):
        assert tc_system.exit_expansion(1) == tc_system.exits[0]

    def test_depth_two_splices_exit(self, tc_system):
        assert str(tc_system.exit_expansion(2)) == \
            "P(x, y) :- A(x, z) ∧ P__exit(z, y)."

    def test_paper_s8_flattening(self):
        """(s8a') and (s8b') are the exit expansions of depths 2, 3."""
        system = parse_system(
            "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), "
            "P(z, y1, z1, u1).")
        first = system.exit_expansion(2)
        assert len(first.body_atoms_of("P__exit")) == 1
        assert len(first.body_atoms_of("A")) == 1
        second = system.exit_expansion(3)
        assert len(second.body_atoms_of("A")) == 2
        assert len(second.body_atoms_of("P__exit")) == 1

    def test_nonrecursive_result(self, tc_system):
        for depth in (1, 2, 3):
            assert not tc_system.exit_expansion(depth).is_recursive()

    def test_subscripted_names_stay_apart(self):
        """Regression: the renamed exit was ``P__exit(x_1, y_1)``,
        whose ``y_1`` unified the rule's own ``y_1`` with the call's
        ``y_2`` and lost answers of this bounded rule."""
        system = parse_system(
            "P(x, y) :- C(x, y_1), B(y_1, y), P(x_1, y_2).")
        assert str(system.exit_expansion(2)) == \
            "P(x, y) :- C(x, y_1) ∧ B(y_1, y) ∧ P__exit(x_1, y_2)."
        assert str(system.expansion(2)) == (
            "P(x, y) :- C(x, y_1) ∧ B(y_1, y) ∧ C(x_1, y_1_3) ∧ "
            "B(y_1_3, y_2) ∧ P(x_1_3, y_2_3).")


class TestUnfolded:
    def test_unfold_once_is_identity(self, tc_system):
        assert tc_system.unfolded(1) is tc_system

    def test_unfold_requires_positive_count(self, tc_system):
        with pytest.raises(ValueError):
            tc_system.unfolded(0)

    def test_unfold_three_matches_theorem2_construction(self):
        """Unfolding (s4a) 3 times: recursive = (s4d), exits = (s4b),
        (s4a'), (s4c')."""
        system = parse_system(
            "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), "
            "P(y1, y2, y3).")
        unfolded = system.unfolded(3)
        assert unfolded.recursive.rule == system.expansion(3)
        assert len(unfolded.exits) == 3
        assert unfolded.exits[0] == system.exit_expansion(1)
        assert unfolded.exits[1] == system.exit_expansion(2)
        assert unfolded.exits[2] == system.exit_expansion(3)

    def test_unfold_multiplies_exits_per_original_exit(self):
        system = parse_system("""
            P(x, y) :- A(x, z), P(z, y).
            P(x, y) :- E(x, y).
            P(x, x) :- V(x).
        """)
        unfolded = system.unfolded(2)
        assert len(unfolded.exits) == 4  # 2 originals × 2 depths
