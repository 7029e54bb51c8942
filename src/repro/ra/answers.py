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
* the decoded side — built on first request by one flat
  :meth:`SymbolTable.decode_column` pass over the row-major codes
  (codes are dense, so the symbol list is itself the per-distinct-code
  dictionary and each occurrence costs one C-level index) followed by
  per-column stride slices zipped back to rows.  The materialisation
  is two-tier: iteration, sorting and rendering need only the decoded
  *list* (no hashing); the value-space ``frozenset`` the pre-columnar
  API returned is built on top of it only when set semantics are
  actually exercised (``==`` against a foreign set, ``hash``, set
  operators).  Both tiers are cached on the instance, so the session
  answer cache doubles as the decoded-column cache: entries are keyed
  by database epoch, and the symbol table is append-only, so a cached
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

    __slots__ = ("_rows", "_symbols", "_columns", "_list", "_decoded",
                 "_sorted", "decode_seconds")

    def __init__(self, rows: Iterable[tuple],
                 symbols: SymbolTable) -> None:
        self._rows: frozenset[tuple] | None = (
            rows if isinstance(rows, frozenset) else frozenset(rows))
        self._symbols = symbols
        self._columns: tuple[array, ...] | None = None
        self._list: list[tuple] | None = None
        self._decoded: frozenset[tuple] | None = None
        self._sorted: list[tuple] | None = None
        #: wall seconds of the first materialisation (None until then);
        #: the server's decode histogram reads this
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
        answers = cls.__new__(cls)
        answers._rows = None
        answers._symbols = symbols
        answers._columns = tuple(columns)
        answers._list = None
        answers._decoded = None
        answers._sorted = None
        answers.decode_seconds = None
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
        """True once the value rows have been materialised."""
        return self._list is not None

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

    def _materialised(self) -> list[tuple]:
        """The decoded value rows as a list — the cheap tier every
        read-only consumer (iteration, sorting, JSON render) needs.
        One flat ``decode_column`` pass over the row-major codes, then
        per-column stride slices zipped back; no tuple hashing."""
        if self._list is None:
            started = perf_counter()
            arity = self.arity
            if arity == 0:
                # empty result, or nullary rows — nothing to decode
                self._list = list(self._rows or ())
            elif self._rows is None:
                # column-first construction: decode each flat column
                # in place and zip back — no row transpose needed
                self._list = list(zip(
                    *(self._symbols.decode_column(column)
                      for column in self._columns)))
            else:
                flat = self._symbols.decode_column(
                    chain.from_iterable(self._rows))
                self._list = list(
                    zip(*(flat[i::arity] for i in range(arity))))
            self.decode_seconds = perf_counter() - started
        return self._list

    def decoded(self) -> frozenset[tuple]:
        """The value-space rows as the ``frozenset`` the pre-columnar
        API returned; built over :meth:`_materialised` only when set
        semantics are exercised, cached forever after (the table is
        append-only, so the cache cannot go stale)."""
        if self._decoded is None:
            self._decoded = frozenset(self._materialised())
        return self._decoded

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._materialised())

    def sorted_rows(self) -> list[tuple]:
        """The decoded rows sorted by ``repr`` — the deterministic
        output order the CLI and the HTTP server print.  Cached, so a
        cache-hit query renders without re-sorting."""
        if self._sorted is None:
            self._sorted = sorted(self._materialised(), key=repr)
        return self._sorted

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
