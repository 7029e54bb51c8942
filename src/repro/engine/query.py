"""Queries against the recursive predicate.

A :class:`Query` is the paper's ``P(a, b, Z)``: a pattern over the
recursive predicate with constants at the *determined* positions and
free slots elsewhere.  Its adornment (``"ddv"``) is what the compiler
consumes; its constants seed the evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core.bindings import Adornment, adornment_to_string
from ..datalog.errors import DatalogSyntaxError

_HEAD_RE = re.compile(r"\s*(?P<pred>[A-Za-z_][A-Za-z0-9_]*)\s*\(")


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
        """Parse ``P(a, Y, Z)``: capitalised names, ``_`` and ``?`` are
        free slots; lower-case names, quoted strings and numbers are
        constants.  Quoted constants may contain any character,
        including ``,`` and ``)``:

        >>> Query.parse("P('a, b', Y)").pattern
        ('a, b', None)
        """
        match = _HEAD_RE.match(text)
        if match is None:
            raise DatalogSyntaxError(f"cannot parse query: {text!r}")
        raw, end = cls._split_args(text, match.end())
        if text[end:].strip() not in ("", "?"):
            raise DatalogSyntaxError(
                f"trailing text after query: {text!r}")
        pattern: list[object | None] = []
        for piece in raw:
            if piece in ("_", "?") or (piece and piece[0].isupper()):
                pattern.append(None)
            elif (len(piece) >= 2 and piece.startswith("'")
                    and piece.endswith("'")):
                pattern.append(piece[1:-1])
            else:
                try:
                    pattern.append(int(piece))
                except ValueError:
                    try:
                        pattern.append(float(piece))
                    except ValueError:
                        pattern.append(piece)
        return cls(match.group("pred"), tuple(pattern))

    @staticmethod
    def _split_args(text: str, start: int) -> tuple[list[str], int]:
        """Split the argument list starting at *start* (just past the
        opening paren) on top-level commas, honouring single-quoted
        constants, and return the stripped pieces plus the index just
        past the closing paren."""
        pieces: list[str] = []
        buffer: list[str] = []
        in_quote = False
        for position in range(start, len(text)):
            char = text[position]
            if in_quote:
                buffer.append(char)
                if char == "'":
                    in_quote = False
            elif char == "'":
                buffer.append(char)
                in_quote = True
            elif char == ",":
                pieces.append("".join(buffer).strip())
                buffer = []
            elif char == ")":
                pieces.append("".join(buffer).strip())
                if pieces == [""]:    # the empty argument list ``P()``
                    pieces = []
                elif "" in pieces:
                    raise DatalogSyntaxError(
                        f"empty argument in query: {text!r}")
                return pieces, position + 1
            else:
                buffer.append(char)
        raise DatalogSyntaxError(
            "unterminated quote in query: " f"{text!r}" if in_quote
            else f"unterminated argument list in query: {text!r}")

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
