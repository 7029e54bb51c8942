"""Substitutions, unification, and rule renaming.

These are the mechanics behind the paper's *expansion* (unfolding)
operation: the k-th expansion of a recursive rule is obtained by
renumbering the rule's variables and unifying its head with the
recursive body atom of the (k-1)-st expansion.  Because the language is
function-free, unification is just consistent variable/constant
matching — no occurs check is needed.
"""

from __future__ import annotations

from typing import Mapping

from .atoms import Atom
from .rules import Rule
from .terms import Constant, Term, Variable

#: A substitution maps variables to terms.
Substitution = Mapping[Variable, Term]


def apply_to_term(subst: Substitution, term: Term) -> Term:
    """Apply *subst* to a single term (identity on constants)."""
    if isinstance(term, Variable):
        return subst.get(term, term)
    return term


def apply_to_atom(subst: Substitution, atom: Atom) -> Atom:
    """Apply *subst* to every argument of *atom*."""
    return atom.with_args(apply_to_term(subst, t) for t in atom.args)


def apply_to_rule(subst: Substitution, rule: Rule) -> Rule:
    """Apply *subst* to the head and every body atom of *rule*."""
    return Rule(apply_to_atom(subst, rule.head),
                tuple(apply_to_atom(subst, a) for a in rule.body))


def compose(first: Substitution, second: Substitution) -> dict[Variable, Term]:
    """Return the substitution equivalent to applying *first* then *second*.

    >>> x, y, z = Variable("x"), Variable("y"), Variable("z")
    >>> composed = compose({x: y}, {y: z})
    >>> composed[x]
    Variable(name='z')
    """
    out: dict[Variable, Term] = {
        var: apply_to_term(second, term) for var, term in first.items()}
    for var, term in second.items():
        out.setdefault(var, term)
    return out


def unify_terms(left: Term, right: Term,
                subst: dict[Variable, Term]) -> bool:
    """Extend *subst* (in place) to unify *left* with *right*.

    Returns False when unification fails; *subst* may then contain
    partial bindings and must be discarded by the caller.
    """
    left = apply_to_term(subst, left)
    right = apply_to_term(subst, right)
    if left == right:
        return True
    if isinstance(left, Variable):
        subst[left] = right
        _normalise(subst)
        return True
    if isinstance(right, Variable):
        subst[right] = left
        _normalise(subst)
        return True
    return False  # two distinct constants


def _normalise(subst: dict[Variable, Term]) -> None:
    """Resolve chains so every binding maps to a fully applied term."""
    for var in list(subst):
        term = subst[var]
        seen = {var}
        while isinstance(term, Variable) and term in subst:
            if term in seen:  # pragma: no cover - cycles cannot arise
                break
            seen.add(term)
            term = subst[term]
        subst[var] = term


def unify_atoms(left: Atom, right: Atom) -> dict[Variable, Term] | None:
    """Most general unifier of two atoms, or None when they don't unify.

    >>> from .atoms import atom
    >>> mgu = unify_atoms(atom("P", "x", "y"), atom("P", "z", "u"))
    >>> sorted(str(v) for v in mgu)
    ['x', 'y']
    """
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    subst: dict[Variable, Term] = {}
    for left_term, right_term in zip(left.args, right.args):
        if not unify_terms(left_term, right_term, subst):
            return None
    return subst


def match_atom(pattern: Atom, ground: Atom) -> dict[Variable, Constant] | None:
    """One-way matching of a possibly-open *pattern* against a ground atom.

    Unlike unification this never binds variables of *ground* (there are
    none) and is what fact retrieval uses.
    """
    if pattern.predicate != ground.predicate or pattern.arity != ground.arity:
        return None
    bindings: dict[Variable, Constant] = {}
    for pattern_term, ground_term in zip(pattern.args, ground.args):
        if isinstance(pattern_term, Constant):
            if pattern_term != ground_term:
                return None
        else:
            assert isinstance(ground_term, Constant)
            bound = bindings.get(pattern_term)
            if bound is None:
                bindings[pattern_term] = ground_term
            elif bound != ground_term:
                return None
    return bindings


def rename_rule(rule: Rule, level: int) -> Rule:
    """Rename every variable of *rule* with an expansion-level subscript.

    This is the paper's "renumbering of variables" step: the second
    I-graph of ``P(x, y) :- A(x, z) ∧ P(z, u) ∧ B(u, y)`` is built from
    the copy over ``x_1, y_1, z_1, u_1``.
    """
    subst: dict[Variable, Term] = {
        var: var.renamed(level) for var in rule.variables}
    return apply_to_rule(subst, rule)


def rename_apart(rule: Rule, taken: frozenset[Variable],
                 level: int = 1) -> Rule:
    """:func:`rename_rule` at the first level from *level* on at which
    no renamed variable is in *taken*: a rule may itself use
    subscripted names such as ``y_1``.

    >>> from .parser import parse_rule
    >>> rule = parse_rule("P(x, y) :- C(x, y_1), P(y_1, y).")
    >>> print(rename_apart(rule, rule.variables))
    P(x_2, y_2) :- C(x_2, y_1_2) ∧ P(y_1_2, y_2).
    """
    while {var.renamed(level) for var in rule.variables} & taken:
        level += 1
    return rename_rule(rule, level)
