"""Queries against the recursive predicate.

A :class:`Query` is the paper's ``P(a, b, Z)``: a pattern over the
recursive predicate with constants at the *determined* positions and
free slots elsewhere.  Its adornment (``"ddv"``) is what the compiler
consumes; its constants seed the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bindings import Adornment, adornment_to_string
from ..datalog.parser import parse_goal


@dataclass(frozen=True)
class Query:
    """A query pattern: constants at bound positions, None elsewhere.

    >>> q = Query.parse("P(a, Y, Z)")
    >>> q.pattern
    ('a', None, None)
    >>> q.adornment_string
    'dvv'
    """

    predicate: str
    pattern: tuple[object | None, ...]

    @classmethod
    def parse(cls, text: str) -> "Query":
        """Parse query text as a ``?-`` goal reads
        (:func:`~repro.datalog.parser.parse_goal`): capitalised and
        ``_``-prefixed names, ``_`` and ``?`` are free slots;
        lower-case names, numbers and single-quoted strings are
        constants.  A quoted constant may hold any character but
        ``'``, ``,`` and ``)`` included:

        >>> Query.parse("P('a, b', Y)").pattern
        ('a, b', None)
        """
        return cls.from_atom(parse_goal(text))

    @classmethod
    def all_free(cls, predicate: str, arity: int) -> "Query":
        """The fully open query ``P(v, ..., v)``."""
        return cls(predicate, (None,) * arity)

    @classmethod
    def from_atom(cls, goal) -> "Query":
        """Build a query from a goal atom (``?-`` statements): its
        variables become free slots, constants stay bound."""
        pattern = tuple(
            None if not hasattr(term, "value") else term.value
            for term in goal.args)
        return cls(goal.predicate, pattern)

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.pattern)

    @property
    def adornment(self) -> Adornment:
        """The bound positions (0-based)."""
        return frozenset(i for i, v in enumerate(self.pattern)
                         if v is not None)

    @property
    def adornment_string(self) -> str:
        """The paper's d/v rendering of the adornment."""
        return adornment_to_string(self.adornment, self.arity)

    @property
    def constants(self) -> dict[int, object]:
        """Bound position → constant value."""
        return {i: v for i, v in enumerate(self.pattern) if v is not None}

    def encoded(self, database) -> "Query":
        """This query with its constants pushed into *database*'s
        storage space (interning them), so :meth:`matches` /
        :meth:`filter` apply directly to stored rows."""
        return Query(self.predicate,
                     database.encode_pattern(self.pattern))

    def matches(self, row: tuple) -> bool:
        """True when *row* agrees with the pattern's constants."""
        return all(value is None or row[i] == value
                   for i, value in enumerate(self.pattern))

    def filter(self, rows) -> frozenset[tuple]:
        """The rows matching the pattern.

        Specialised by adornment: the free query copies, a single
        bound position compares one slot per row, and only the general
        multi-constant pattern pays the per-row :meth:`matches` loop —
        this sits on every engine's answer boundary, where *rows* is a
        whole materialised fixpoint.
        """
        bound = [(i, v) for i, v in enumerate(self.pattern)
                 if v is not None]
        if not bound:
            return frozenset(rows)
        if len(bound) == 1:
            (i, v), = bound
            return frozenset(row for row in rows if row[i] == v)
        return frozenset(row for row in rows if self.matches(row))

    def __str__(self) -> str:
        inner = ", ".join(str(v) if v is not None else "_"
                          for v in self.pattern)
        return f"{self.predicate}({inner})"
