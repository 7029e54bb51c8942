"""Atoms (predicate applications) of the Datalog language.

An :class:`Atom` is a predicate symbol applied to a tuple of terms,
``A(x, z)`` or ``P(z, y)``.  Atoms are immutable and hashable so they
can be used as dictionary keys during unification and as members of
rule bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .terms import Constant, Term, Variable


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to terms: ``pred(args[0], ..., args[n-1])``.

    >>> a = Atom("A", (Variable("x"), Variable("z")))
    >>> str(a)
    'A(x, z)'
    >>> a.arity
    2
    """

    predicate: str
    args: tuple[Term, ...]

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The variable arguments, in positional order, with duplicates."""
        return tuple(t for t in self.args if isinstance(t, Variable))

    @property
    def constants(self) -> tuple[Constant, ...]:
        """The constant arguments, in positional order."""
        return tuple(t for t in self.args if isinstance(t, Constant))

    @property
    def is_ground(self) -> bool:
        """True iff the atom contains no variables (i.e. it is a fact)."""
        return all(isinstance(t, Constant) for t in self.args)

    def variable_set(self) -> frozenset[Variable]:
        """The set of distinct variables occurring in the atom."""
        return frozenset(self.variables)

    def has_repeated_variables(self) -> bool:
        """True iff some variable occurs in more than one position.

        The paper forbids repeated variables under the *recursive*
        predicate; callers check this per-atom where required.
        """
        seen: set[Variable] = set()
        for term in self.args:
            if isinstance(term, Variable):
                if term in seen:
                    return True
                seen.add(term)
        return False

    def positions_of(self, variable: Variable) -> tuple[int, ...]:
        """0-based argument positions at which *variable* occurs."""
        return tuple(i for i, t in enumerate(self.args) if t == variable)

    def with_args(self, args: Iterable[Term]) -> "Atom":
        """A copy of this atom with *args* substituted in."""
        return Atom(self.predicate, tuple(args))

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.args)
        return f"{self.predicate}({inner})"

    def __iter__(self) -> Iterator[Term]:
        return iter(self.args)


def connected_groups(atoms: Sequence[Atom],
                     constants: frozenset[Variable] = frozenset()
                     ) -> dict[int, list[int]]:
    """The indices of *atoms*, grouped by shared variables and keyed by
    their group's root.  Union-find over shared variables outside
    *constants*: two atoms that only share one of those (a query
    constant) are independent selections.  The groups come in order of
    their first atom, each in body order; which atom is a group's root
    follows set iteration order, so no caller should order by it.

    >>> groups = connected_groups((atom("A", "x", "m"), atom("B", "y"),
    ...                            atom("C", "m", "z")))
    >>> sorted(groups.values())
    [[0, 2], [1]]
    """
    group_of: dict[int, int] = {i: i for i in range(len(atoms))}

    def find(i: int) -> int:
        while group_of[i] != i:
            group_of[i] = group_of[group_of[i]]
            i = group_of[i]
        return i

    var_home: dict[Variable, int] = {}
    for index, body_atom in enumerate(atoms):
        for var in body_atom.variable_set() - constants:
            if var in var_home:
                group_of[find(index)] = find(var_home[var])
            else:
                var_home[var] = index
    groups: dict[int, list[int]] = {}
    for index in range(len(atoms)):
        groups.setdefault(find(index), []).append(index)
    return groups


def atom(predicate: str, *names: object) -> Atom:
    """Convenience constructor building an atom of variables.

    Strings become :class:`Variable`; any other value becomes a
    :class:`Constant`.  This matches the paper's notation where rules
    are written over lower-case variable names.

    >>> str(atom("A", "x", "z"))
    'A(x, z)'
    """
    terms: list[Term] = []
    for name in names:
        if isinstance(name, (Variable, Constant)):
            terms.append(name)
        elif isinstance(name, str):
            terms.append(Variable(name))
        else:
            terms.append(Constant(name))
    return Atom(predicate, tuple(terms))


def fact(predicate: str, *values: object) -> Atom:
    """Convenience constructor building a ground atom of constants.

    >>> str(fact("A", "a", "b"))
    'A(a, b)'
    """
    return Atom(predicate, tuple(Constant(v) for v in values))
