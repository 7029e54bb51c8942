"""Hypothesis strategies: random linear recursive rules and databases.

The rule generator respects the paper's restrictions by construction
(single linear recursion, no constants, no repeated variables under
the recursive predicate) and repairs range restriction by anchoring
stray head variables in unary predicates — so every generated rule is
a valid input to the classifier and the engines.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.program import RecursionSystem
from repro.datalog.rules import RecursiveRule, Rule
from repro.datalog.terms import Variable

_EDB_PREDICATES = "ABCDEFG"


@st.composite
def linear_rules(draw, max_arity: int = 3,
                 max_edb_atoms: int = 4) -> RecursiveRule:
    """A random valid linear recursive rule."""
    arity = draw(st.integers(1, max_arity))
    head_vars = [Variable(f"x{i}") for i in range(arity)]

    # Recursive body arguments: distinct variables, drawn from unused
    # head variables (building cycles) or fresh ones (building chains).
    body_vars: list[Variable] = []
    used: set[Variable] = set()
    for position in range(arity):
        candidates = [v for v in head_vars if v not in used]
        candidates.append(Variable(f"y{position}"))
        choice = draw(st.sampled_from(candidates))
        used.add(choice)
        body_vars.append(choice)

    all_vars = head_vars + [v for v in body_vars if v not in head_vars]
    atom_count = draw(st.integers(0, max_edb_atoms))
    atoms: list[Atom] = []
    # Predicate names are drawn *with* replacement so the same EDB
    # relation can occur several times in one body (exercising the
    # minimiser and the per-occurrence delta rules); each name keeps a
    # fixed arity so the fact store's arity check stays satisfied.
    arity_of: dict[str, int] = {}
    for _ in range(atom_count):
        name = draw(st.sampled_from(_EDB_PREDICATES[:3]))
        edb_arity = arity_of.setdefault(name,
                                        draw(st.integers(1, 3)))
        args = tuple(draw(st.sampled_from(all_vars))
                     for _ in range(edb_arity))
        atoms.append(Atom(name, args))

    # Repair range restriction: anchor stray head variables.
    covered = set(body_vars)
    for body_atom in atoms:
        covered |= body_atom.variable_set()
    repairs = 0
    for head_var in head_vars:
        if head_var not in covered:
            atoms.append(Atom(f"R{repairs}", (head_var,)))
            repairs += 1

    rule = Rule(Atom("P", tuple(head_vars)),
                tuple(atoms) + (Atom("P", tuple(body_vars)),))
    return RecursiveRule(rule)


@st.composite
def linear_systems(draw, max_arity: int = 3,
                   max_edb_atoms: int = 4) -> RecursionSystem:
    """A random recursion system with the generic exit."""
    return RecursionSystem(draw(linear_rules(max_arity, max_edb_atoms)))
