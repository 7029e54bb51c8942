"""Columnar answer sets: encoded results that decode lazily.

PR 5 moved the whole evaluation pipeline into dense-int storage space
but paid the win back at the answer boundary: every engine eagerly
decoded its full result through :meth:`SymbolTable.decode_rows`, so a
100k-row enumeration rebuilt 100k value tuples the caller often never
looked at (the session answer cache, ``len(answers)``, bound-query
benches).  :class:`AnswerSet` is the fix — the boundary now hands back
the *encoded* rows plus the symbol table that gives them meaning, and
materialises values only when someone actually iterates, compares
against raw values, or renders JSON.

Representation
--------------
An :class:`AnswerSet` holds the answer relation twice over, each half
built lazily from the other side of the encoding boundary:

* ``encoded`` — the frozenset of storage-space (int-code) rows exactly
  as the fixpoint produced them; membership, length, equality between
  two results of the same code space, and hashing of the *encoded*
  side never decode anything;
* ``columns()`` — the same rows transposed into per-column flat code
  sequences (``array('q')``), the hand-off shape for a vectorised
  backend and for per-column decoding;

either side may come first: row-built sets (:meth:`__init__`)
transpose columns on demand, column-built sets
(:meth:`AnswerSet.from_columns`, the vectorised backend's boundary)
materialise the row frozenset on demand — so a fixpoint that ran on
flat vectors pays for row tuples only when set semantics are actually
exercised;
* the decoded side — one tier at a time, built on first read: the
  decoded *columns*, one :meth:`SymbolTable.decode_column` list each
  (codes are dense, so the symbol list is itself the code→value
  dictionary), which iteration zips into rows as its reader reads
  them, so no row list is kept; or, once :meth:`sorted_rows` has
  sorted that stream, the sorted list alone (the columns are dropped).
  The value-space ``frozenset`` the pre-columnar API returned is built
  from the same stream only when set semantics are exercised (``==``
  against a foreign set, ``hash``, set operators).  Each tier is cached
  on the instance, with the rendered JSON array
  (:meth:`AnswerSet.json_array`), so the session answer cache doubles
  as the decoded-answer and rendered-answer cache: entries are keyed by
  database epoch, and the symbol table is append-only, so a cached
  decode can never go stale.

Compatibility
-------------
The class registers as a :class:`collections.abc.Set`, so everything
the old ``frozenset[tuple]`` supported keeps working: iteration yields
decoded value rows, ``in`` takes value rows (encoded through a lookup
— an unseen constant is a guaranteed miss, decoded from nothing),
``==`` works in both directions against ``set``/``frozenset`` (their
``__eq__`` returns ``NotImplemented`` for a non-set, so Python falls
back to ours), set operators return plain frozensets, and ``hash``
agrees with the decoded frozenset.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Set
from itertools import chain
from time import perf_counter
from typing import Iterable, Iterator

from .symbols import SymbolTable

__all__ = ["AnswerSet"]


class AnswerSet(Set):
    """A lazily decoded, column-addressable answer relation.

    >>> table = SymbolTable()
    >>> rows = {table.encode_row(("a", "b")), table.encode_row(("a", "c"))}
    >>> answers = AnswerSet(rows, table)
    >>> len(answers), answers.is_decoded
    (2, False)
    >>> ("a", "b") in answers        # membership encodes the probe
    True
    >>> answers.is_decoded           # ...without materialising values
    False
    >>> sorted(answers)              # iteration decodes, once
    [('a', 'b'), ('a', 'c')]
    >>> answers == {("a", "b"), ("a", "c")}
    True
    """

    __slots__ = ("_rows", "_symbols", "_columns", "_values", "_decoded",
                 "_sorted", "_json", "decode_seconds")

    def __init__(self, rows: Iterable[tuple],
                 symbols: SymbolTable) -> None:
        self._rows: frozenset[tuple] | None = (
            rows if isinstance(rows, frozenset) else frozenset(rows))
        self._symbols = symbols
        self._columns: tuple[array, ...] | None = None
        self._values: tuple[list, ...] | None = None
        self._decoded: frozenset[tuple] | None = None
        self._sorted: list[tuple] | None = None
        self._json: bytes | None = None
        #: wall seconds of the column decode (None until then); the
        #: server's decode histogram reads this
        self.decode_seconds: float | None = None

    @classmethod
    def from_columns(cls, columns: tuple[array, ...],
                     symbols: SymbolTable) -> "AnswerSet":
        """An answer set handed over column-first — the vectorised
        backend's boundary shape (:mod:`repro.engine.vector`), where
        the fixpoint already holds flat code vectors and building row
        tuples up front would tax enumerations nobody reads.

        *columns* must be per-column ``array('q')`` code sequences of
        equal length holding *distinct* rows (the kernel's seen-set is
        deduplicated by construction); the row-set side (`encoded`,
        membership, set equality) materialises lazily from them, the
        mirror image of :meth:`columns` materialising from rows.
        """
        answers = cls((), symbols)
        answers._rows, answers._columns = None, tuple(columns)
        return answers

    # -- the encoded side (never decodes) ------------------------------

    @property
    def encoded(self) -> frozenset[tuple]:
        """The storage-space rows, exactly as the engine emitted them
        (transposed lazily out of a column-first construction)."""
        if self._rows is None:
            self._rows = frozenset(zip(*self._columns))
        return self._rows

    @property
    def symbols(self) -> SymbolTable:
        """The dictionary giving the codes meaning."""
        return self._symbols

    @property
    def arity(self) -> int:
        """Row width (0 for an empty or nullary result)."""
        if self._rows is None:
            return len(self._columns)
        for row in self._rows:
            return len(row)
        return 0

    @property
    def is_decoded(self) -> bool:
        """True once the value columns have been decoded."""
        return self.decode_seconds is not None

    def columns(self) -> tuple[array, ...]:
        """The rows as per-column flat code sequences (``array('q')``).

        Built on first request by one C-level transpose of the encoded
        rows; codes are dense non-negative ints, so they always fit
        the signed-64 array type.  Column order is row-position order;
        the row order across columns is consistent but unspecified
        (set semantics), matching ``zip(*columns()) == encoded``.
        """
        if self._columns is None:
            self._columns = tuple(array("q", column)
                                  for column in zip(*self._rows))
        return self._columns

    def __len__(self) -> int:
        if self._rows is None:
            return len(self._columns[0]) if self._columns else 0
        return len(self._rows)

    def __contains__(self, row) -> bool:
        """Value-space membership via lookup-encoding the probe: a
        constant the table never interned occurs in no stored row, so
        the probe misses without decoding anything."""
        if not isinstance(row, tuple):
            return False
        lookup = self._symbols.lookup
        codes = []
        for value in row:
            code = lookup(value)
            if code is None:
                return False
            codes.append(code)
        return tuple(codes) in self.encoded

    # -- the decoded side (lazy, cached) -------------------------------

    def _decoded_columns(self) -> tuple[list, ...]:
        """The value columns: one ``decode_column`` pass per code
        column, or, for a row-built set, one over the row-major codes
        then per-column stride slices.  Builds and hashes no row."""
        values = self._values
        if values is None:
            started = perf_counter()
            decode = self._symbols.decode_column
            if self._rows is None:
                values = tuple(map(decode, self._columns))
            else:
                arity = self.arity
                flat = decode(chain.from_iterable(self._rows))
                values = tuple(flat[i::arity] for i in range(arity))
            # timed first: a reader that finds the columns finds this
            self.decode_seconds = perf_counter() - started
            self._values = values
        return values

    def decoded(self) -> frozenset[tuple]:
        """The value-space rows as the ``frozenset`` the pre-columnar
        API returned; built from the row stream only when set
        semantics are exercised, cached forever after (the table is
        append-only, so the cache cannot go stale)."""
        if self._decoded is None:
            self._decoded = frozenset(self)
        return self._decoded

    def __iter__(self) -> Iterator[tuple]:
        # Not a generator: the columns decode before this returns.  Each
        # slot is read once, as another thread's sort may drop _values.
        rows = self._sorted
        if rows is not None:
            return iter(rows)
        values = self._decoded_columns()
        if not values:  # nullary rows or none: zip() would yield nothing
            return iter(self._rows or ())
        return zip(*values)

    def sorted_rows(self) -> list[tuple]:
        """The decoded rows sorted by ``repr`` — the deterministic
        output order the CLI and the HTTP server print.  Cached, so a
        cache-hit query renders without re-sorting; the columns are
        dropped, and later iteration reads this list."""
        rows = self._sorted
        if rows is None:
            rows = self._sorted = sorted(self, key=repr)
            self._values = None
        return rows

    def json_array(self) -> bytes:
        """The :meth:`sorted_rows` as the UTF-8 JSON array the HTTP
        server embeds under an envelope's ``"answers"`` key: one row
        per line at the envelope's two-space indent, ``[]`` when empty.
        Rendered on first request with one ``json.dumps`` per distinct
        value and cached like the sort, so an answer-cache hit sends
        these same bytes again.  Two readers racing on the first
        render at worst both build equal bytes and store them into
        the one slot, as with the sort.

        >>> table = SymbolTable()
        >>> rows = {table.encode_row(("a", "ü")), table.encode_row((2.5, -7))}
        >>> print(AnswerSet(rows, table).json_array().decode())
        [
            ["a", "ü"],
            [2.5, -7]
          ]
        >>> AnswerSet((), table).json_array()
        b'[]'
        """
        if self._json is None:
            rows = self.sorted_rows()
            dumped = {value: json.dumps(value, ensure_ascii=False)
                      for value in set(chain.from_iterable(rows))}
            inner = "],\n    [".join([", ".join(map(dumped.__getitem__, row))
                                         for row in rows])
            self._json = (f"[\n    [{inner}]\n  ]" if rows
                          else "[]").encode("utf-8")
        return self._json

    # -- set behaviour -------------------------------------------------

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        # Set-operator results (|, &, -, ^) are value-space mixtures
        # with arbitrary other sets; hand back a plain frozenset.
        return frozenset(iterable)

    def __eq__(self, other) -> bool:
        if isinstance(other, AnswerSet):
            if self._symbols is other._symbols:
                # same code space: compare without decoding either side
                return self.encoded == other.encoded
            return self.decoded() == other.decoded()
        if isinstance(other, Set):
            return self.decoded() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Must agree with the decoded frozenset so AnswerSet and
        # frozenset results interchange as dict keys / set members.
        return hash(self.decoded())

    def __repr__(self) -> str:
        state = "decoded" if self.is_decoded else "lazy"
        return (f"AnswerSet({len(self)} rows × {self.arity} "
                f"columns, {state})")
