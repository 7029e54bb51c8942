"""Dictionary encoding: intern constants to dense non-negative ints.

Every engine in this reproduction iterates joins over a *fixed active
domain* — the standard systems response is to dictionary-encode the
constants once at the storage boundary and run the whole evaluation
pipeline over dense integer codes.  A :class:`SymbolTable` is that
dictionary: append-only, with an id→value list and a value→id dict, so

* encoding is one dict lookup (interning on first sight),
* decoding is one list index,
* codes are dense (``0 .. len(table)-1``), which makes *array-indexed*
  access paths possible — see :meth:`~repro.ra.database.Database
  .dense_table` — where value-keyed storage can only hash.

Tables pickle as their value list (the code of a value is its list
position, so the dict half is rebuilt on arrival).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

__all__ = ["SymbolTable"]

#: Process-unique tokens; a table's token names its code space, so any
#: cache keyed by encoded values (e.g. the join-plan cache) can include
#: it and never confuse codes from two different tables.
_TOKENS = itertools.count(1)


class SymbolTable:
    """An append-only value ⇄ dense-int dictionary.

    >>> table = SymbolTable()
    >>> table.encode("a"), table.encode("b"), table.encode("a")
    (0, 1, 0)
    >>> table.decode(1)
    'b'
    >>> len(table)
    2
    """

    __slots__ = ("_values", "_codes", "token")

    def __init__(self, values: Iterable[object] = ()) -> None:
        self._values: list = list(values)
        self._codes: dict = {value: code
                             for code, value in enumerate(self._values)}
        if len(self._codes) != len(self._values):
            raise ValueError("duplicate values in symbol table seed")
        #: process-unique identity of this table's code space
        self.token = next(_TOKENS)

    # -- encoding ------------------------------------------------------

    def encode(self, value) -> int:
        """The code of *value*, interning it on first sight."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def lookup(self, value) -> int | None:
        """The code of *value*, or None when it was never interned."""
        return self._codes.get(value)

    def decode(self, code: int):
        """The value behind *code* (IndexError for codes never issued)."""
        return self._values[code]

    def encode_row(self, row: Iterable) -> tuple[int, ...]:
        """Encode every value of *row* (interning as needed)."""
        return tuple(map(self.encode, row))

    def decode_row(self, row: Iterable[int]) -> tuple:
        """Decode every code of *row*."""
        values = self._values
        return tuple(values[code] for code in row)

    def decode_column(self, codes) -> list:
        """Decode one flat code column in a single list comprehension.

        Codes are *dense*, so the value list is itself the complete
        code→value dictionary: the per-distinct-code decode work was
        paid once at intern time, and a column of 100k rows over 300
        distinct constants (every transitive-closure endpoint column)
        costs 100k O(1) list indexes — no per-row dict rebuilds, no
        hashing, no memo to populate.  This is the per-column
        discipline the columnar answer path
        (:class:`~repro.ra.answers.AnswerSet`) is built on.  Over an
        ``array('q')`` on CPython 3.11 the comprehension indexes faster
        than ``list(map(values.__getitem__, codes))``.
        """
        values = self._values
        return [values[code] for code in codes]

    def decode_rows(self, rows: Iterable[tuple]) -> frozenset[tuple]:
        """Bulk-decode a row collection (the eager answer boundary).

        Column-wise: one flat :meth:`decode_column` pass over the
        row-major codes, then per-column stride slices zipped back to
        rows.  On a 100k-answer result this is several times faster
        than calling :meth:`decode_row` per row — the transpose runs in
        C and the decode is one list comprehension.
        """
        rows = list(rows)
        if not rows:
            return frozenset()
        arity = len(rows[0])
        if arity == 0:
            # zip(*) of nullary rows is empty; keep that identity
            return frozenset()
        flat = self.decode_column(itertools.chain.from_iterable(rows))
        return frozenset(zip(*(flat[i::arity] for i in range(arity))))

    # -- snapshots -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator:
        """The interned values, in code order."""
        return iter(self._values)

    def __contains__(self, value) -> bool:
        return value in self._codes

    def __getstate__(self) -> dict:
        """Pickle as the value list (codes are list positions)."""
        return {"values": self._values}

    def __setstate__(self, state: dict) -> None:
        self._values = state["values"]
        self._codes = {value: code
                       for code, value in enumerate(self._values)}
        self.token = next(_TOKENS)

    def __repr__(self) -> str:
        return f"SymbolTable({len(self._values)} symbols)"
