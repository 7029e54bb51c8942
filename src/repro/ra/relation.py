"""Immutable relations over named columns.

The evaluation engines work on the encoded rows of the
:class:`~repro.ra.database.Database`; :class:`Relation` is the
set-at-a-time view used for results, for the relational-algebra
expression trees, and throughout the test-suite's algebraic law checks.

Rows are plain Python tuples of hashable values; the schema is a tuple
of column names.  All operations return new relations.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from ..datalog.errors import SchemaError


class Relation:
    """An immutable named-column relation.

    >>> r = Relation(("src", "dst"), [("a", "b"), ("b", "c")])
    >>> len(r.select(src="a"))
    1
    >>> sorted(r.project(("dst",)).rows)
    [('b',), ('c',)]
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: Iterable[str],
                 rows: Iterable[tuple] = ()) -> None:
        self._columns = tuple(columns)
        if len(set(self._columns)) != len(self._columns):
            raise SchemaError(f"duplicate column names: {self._columns}")
        frozen = frozenset(tuple(row) for row in rows)
        for row in frozen:
            if len(row) != len(self._columns):
                raise SchemaError(
                    f"row {row} does not match schema {self._columns}")
        self._rows = frozen

    # -- accessors ---------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        """The schema: column names in positional order."""
        return self._columns

    @property
    def rows(self) -> frozenset[tuple]:
        """The row set."""
        return self._rows

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self._columns)

    def column_index(self, name: str) -> int:
        """Position of column *name* (SchemaError when absent)."""
        try:
            return self._columns.index(name)
        except ValueError:
            raise SchemaError(
                f"no column {name!r} in schema {self._columns}") from None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __contains__(self, row: tuple) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._columns == other._columns and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._columns, self._rows))

    def __repr__(self) -> str:
        return f"Relation({self._columns}, {len(self._rows)} rows)"

    # -- unary operators ----------------------------------------------

    def select(self, **equalities: object) -> "Relation":
        """σ: keep rows whose named columns equal the given values."""
        indexed = [(self.column_index(col), value)
                   for col, value in equalities.items()]
        rows = (row for row in self._rows
                if all(row[i] == v for i, v in indexed))
        return Relation(self._columns, rows)

    def where(self, predicate: Callable[[tuple], bool]) -> "Relation":
        """Generalised σ with an arbitrary row predicate."""
        return Relation(self._columns,
                        (row for row in self._rows if predicate(row)))

    def project(self, columns: Iterable[str]) -> "Relation":
        """π: keep the named columns (duplicates collapse, set
        semantics)."""
        names = tuple(columns)
        indices = [self.column_index(c) for c in names]
        return Relation(names, (tuple(row[i] for i in indices)
                                for row in self._rows))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """ρ: rename columns according to *mapping*."""
        return Relation(tuple(mapping.get(c, c) for c in self._columns),
                        self._rows)

    # -- binary operators ----------------------------------------------

    def _require_same_schema(self, other: "Relation") -> None:
        if self._columns != other._columns:
            raise SchemaError(
                f"schema mismatch: {self._columns} vs {other._columns}")

    def union(self, other: "Relation") -> "Relation":
        """∪ over union-compatible relations."""
        self._require_same_schema(other)
        return Relation(self._columns, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        """− over union-compatible relations."""
        self._require_same_schema(other)
        return Relation(self._columns, self._rows - other._rows)

    def intersection(self, other: "Relation") -> "Relation":
        """∩ over union-compatible relations."""
        self._require_same_schema(other)
        return Relation(self._columns, self._rows & other._rows)

    def product(self, other: "Relation") -> "Relation":
        """× — schemas must be disjoint (rename first otherwise)."""
        overlap = set(self._columns) & set(other._columns)
        if overlap:
            raise SchemaError(
                f"product schemas overlap on {sorted(overlap)}; "
                f"rename first")
        return Relation(
            self._columns + other._columns,
            (left + right for left in self._rows for right in other._rows))

    def join(self, other: "Relation") -> "Relation":
        """⋈ — natural join on the shared column names.

        With no shared columns this degenerates to the product, which
        mirrors the paper's evaluation principle (a join is only a
        Cartesian product when nothing connects the operands).

        The hash table is built on the *smaller* operand and the
        larger one streams as the probe side — joining a huge delta
        against a tiny relation must hash the tiny one, whichever side
        of the call it is on.  The output schema and row layout are
        the same either way: ``self``'s columns first, then ``other``'s
        non-shared columns.
        """
        shared = [c for c in self._columns if c in other._columns]
        if not shared:
            return self.product(other)
        left_keys = [self.column_index(c) for c in shared]
        right_keys = [other.column_index(c) for c in shared]
        right_extra = [i for i, c in enumerate(other._columns)
                       if c not in shared]
        out_columns = self._columns + tuple(
            other._columns[i] for i in right_extra)
        rows: list[tuple] = []
        by_key: dict[tuple, list[tuple]] = {}
        if len(other._rows) <= len(self._rows):
            # build on other, probe with self (the historical path)
            for row in other._rows:
                by_key.setdefault(
                    tuple(row[i] for i in right_keys), []).append(row)
            for row in self._rows:
                key = tuple(row[i] for i in left_keys)
                for match in by_key.get(key, ()):
                    rows.append(row
                                + tuple(match[i] for i in right_extra))
        else:
            # build on self, probe with other; emit rows in the same
            # self-columns-first layout
            for row in self._rows:
                by_key.setdefault(
                    tuple(row[i] for i in left_keys), []).append(row)
            for row in other._rows:
                key = tuple(row[i] for i in right_keys)
                extras = tuple(row[i] for i in right_extra)
                for match in by_key.get(key, ()):
                    rows.append(match + extras)
        return Relation(out_columns, rows)

    def semijoin(self, other: "Relation") -> "Relation":
        """⋉ — rows of self that join with at least one row of other."""
        shared = [c for c in self._columns if c in other._columns]
        if not shared:
            return self if other._rows else Relation(self._columns)
        left_keys = [self.column_index(c) for c in shared]
        right_keys = [other.column_index(c) for c in shared]
        keys = {tuple(row[i] for i in right_keys) for row in other._rows}
        return Relation(
            self._columns,
            (row for row in self._rows
             if tuple(row[i] for i in left_keys) in keys))

    def divide(self, divisor: "Relation") -> "Relation":
        """÷ — rows of the quotient schema related to *every* divisor row.

        The divisor's columns must be a proper subset of this
        relation's; the result keeps the remaining columns.

        >>> enrolled = Relation(("student", "course"),
        ...     [("ann", "db"), ("ann", "os"), ("bob", "db")])
        >>> required = Relation(("course",), [("db",), ("os",)])
        >>> sorted(enrolled.divide(required).rows)
        [('ann',)]
        """
        divisor_cols = set(divisor.columns)
        if not divisor_cols < set(self._columns):
            raise SchemaError(
                f"divisor columns {divisor.columns} must be a proper "
                f"subset of {self._columns}")
        quotient_cols = tuple(c for c in self._columns
                              if c not in divisor_cols)
        quotient_idx = [self.column_index(c) for c in quotient_cols]
        divisor_idx = [self.column_index(c) for c in divisor.columns]
        present: dict[tuple, set[tuple]] = {}
        for row in self._rows:
            key = tuple(row[i] for i in quotient_idx)
            present.setdefault(key, set()).add(
                tuple(row[i] for i in divisor_idx))
        needed = divisor.rows
        return Relation(quotient_cols,
                        (key for key, have in present.items()
                         if needed <= have))

    @property
    def is_empty(self) -> bool:
        """True when the relation has no rows (the ∃-check's question)."""
        return not self._rows


def relation_from_pairs(pairs: Iterable[tuple],
                        columns: tuple[str, str] = ("src", "dst")
                        ) -> Relation:
    """Convenience constructor for the ubiquitous binary relation."""
    return Relation(columns, pairs)
