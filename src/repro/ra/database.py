"""The extensional database: named fact relations with hash tables.

A :class:`Database` stores the EDB (and, during bottom-up evaluation,
the IDB) as mutable sets of tuples keyed by predicate name, with
multi-column hash tables built lazily and invalidated by a
per-relation version counter — the access-path layer every engine
shares.

Storage is *dictionary encoded*: a shared
:class:`~repro.ra.symbols.SymbolTable` interns every constant to a
dense non-negative int on the way in, rows are stored as int tuples,
and decoding happens exactly once at the answer boundary.  Two layers
of API coexist:

* the **value-space** methods (:meth:`add`, :meth:`bulk`,
  :meth:`rows`, …) keep their historical semantics — values in,
  values out — so users, tests and the I/O layer never see a code;
* the **storage-space** methods (:meth:`add_encoded`,
  :meth:`rows_encoded`, :meth:`hash_table`, :meth:`dense_table`)
  speak int tuples and are what the engines run on.

One access path serves every reader: multi-column hash tables
(:meth:`hash_table`), keyed by an arbitrary column combination and
invalidated by a per-relation version counter.  The set-at-a-time
join plans of :mod:`repro.engine.setjoin` probe them.
:meth:`dense_table` is their single-column variant stored as a plain
list indexed by key *code*, the array access path dictionary encoding
exists to enable.

The same tables serve *derived relations* (:meth:`derived`): the
views and recursions a session evaluates below a query, class C's
auxiliary recursion and a compressed chain's composed step, each built
once per version of what it reads and never a relation of the store.

Bulk loads bump the version once per call instead of once per row, so
a 10k-row load invalidates each derived structure a single time.
Removals (:meth:`remove`, :meth:`bulk_remove`) go through the same
version discipline, so cached hash tables never serve deleted rows.

Databases pickle as *snapshots*: rows, arities, version counters and
the symbol table cross the wire — lazily built hash tables are dropped
and rebuilt on first use in the receiving process.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping

from ..datalog.atoms import Atom
from ..datalog.errors import EvaluationError, RuleValidationError
from ..datalog.terms import Constant
from .symbols import SymbolTable

#: A query pattern: one entry per position, None meaning "any value".
Pattern = tuple


def _arity_mismatch(name: str, known: int, row: tuple) -> EvaluationError:
    return EvaluationError(f"arity mismatch for {name!r}: expected "
                           f"{known}, got {len(row)} in {row}")


class Database:
    """Mutable fact store keyed by predicate name.

    >>> db = Database()
    >>> db.add("A", ("a", "b"))
    True
    >>> db.add("A", ("a", "b"))   # duplicates are ignored
    False
    >>> sorted(db.rows("A"))
    [('a', 'b')]
    """

    def __init__(self) -> None:
        self._init_state(SymbolTable())

    def _init_state(self, symbols: SymbolTable) -> None:
        """Empty storage over *symbols* — shared by :meth:`copy` and
        restored by :meth:`__setstate__`, so neither allocates a table
        only to replace it."""
        self._relations: dict[str, set[tuple]] = {}
        self._arities: dict[str, int] = {}
        #: per-relation mutation counters; derived structures snapshot
        #: the counter at build time and are stale when it moved on
        self._versions: dict[str, int] = {}
        #: multi-column hash tables for the set-at-a-time join kernel,
        #: keyed by (relation, key-columns) → (version, key → row list)
        self._hash_tables: dict[tuple[str, tuple[int, ...]],
                                tuple[int, dict]] = {}
        #: dense (list-indexed) single-column tables, keyed by
        #: (relation, column) → (version, list)
        self._dense_tables: dict[tuple[str, int],
                                 tuple[int, list]] = {}
        #: single-column projections of dense tables for the fused
        #: columnar probe, keyed by (relation, key-col, value-col) →
        #: (version, list); views over an already-counted build, so
        #: they do not move ``hash_builds``
        self._dense_columns: dict[tuple[str, int, int],
                                  tuple[int, list]] = {}
        #: CSR flattening of dense columns for the vectorised kernel,
        #: keyed like ``_dense_columns`` → (version, (values, offsets))
        #: flat ``array('q')`` pairs; derived views, no ``hash_builds``
        self._csr_columns: dict[tuple[str, int, int],
                                tuple[int, tuple]] = {}
        #: derived relations (:meth:`derived`), keyed by name → (their
        #: key: what defines them and the versions of what they read,
        #: rows — None for a declined build); the join tables above
        #: serve them under that name, at that key
        self._derived: dict[str, tuple[tuple, tuple | None]] = {}
        #: the constant dictionary every stored row is encoded in
        self._symbols = symbols
        #: >0 while inside :meth:`bulk`: version upkeep deferred
        self._bulk_depth = 0
        #: relations mutated while inside a bulk operation; each gets
        #: exactly one version bump when the outermost bulk ends
        self._bulk_dirty: set[str] = set()
        #: when True every mutation raises — the concurrent query
        #: service marks each published MVCC snapshot read-only, so a
        #: reader that would scribble on shared state fails loudly
        #: instead of corrupting other requests.  :meth:`copy` hands
        #: back a *writable* database (engines copy-then-materialise),
        #: which is exactly the per-request snapshot discipline.
        self.read_only = False
        #: hash tables built for the join kernel and :meth:`match`
        #: (dense tables count here too — same build, different shape)
        self.hash_builds = 0

    # -- encoding boundary ----------------------------------------------

    @property
    def symbols(self) -> SymbolTable:
        """The shared constant dictionary."""
        return self._symbols

    def encode_const(self, value):
        """Storage representation of one constant (interns it)."""
        return self._symbols.encode(value)

    def encode_row(self, row: tuple) -> tuple:
        """Storage representation of a value row (interns)."""
        return self._symbols.encode_row(row)

    def decode_row(self, row: tuple) -> tuple:
        """Value representation of a stored row."""
        return self._symbols.decode_row(row)

    def encode_pattern(self, pattern: Pattern) -> Pattern:
        """Encode a match pattern, preserving None wildcards
        (interning the constants — used for query patterns, so the
        evaluation machinery runs identically whether or not the
        constant can match anything)."""
        encode = self._symbols.encode
        return tuple(None if v is None else encode(v) for v in pattern)

    def _lookup_pattern(self, pattern: Pattern) -> Pattern | None:
        """Encode a pattern without interning; None when a constant
        was never seen (such a pattern cannot match any stored row)."""
        lookup = self._symbols.lookup
        out = []
        for value in pattern:
            if value is None:
                out.append(None)
            else:
                code = lookup(value)
                if code is None:
                    return None
                out.append(code)
        return tuple(out)

    # -- construction --------------------------------------------------

    @classmethod
    def from_atoms(cls, facts: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms.

        A fact with a variable argument is rejected rather than
        silently truncated to its constant positions.
        """
        db = cls()
        for fact in facts:
            values = []
            for term in fact.args:
                if not isinstance(term, Constant):
                    raise RuleValidationError(
                        f"fact {fact} is not ground: {term} is not a "
                        f"constant")
                values.append(term.value)
            db.add(fact.predicate, tuple(values))
        return db

    @classmethod
    def from_dict(cls, relations: Mapping[str, Iterable[tuple]]
                  ) -> "Database":
        """Build a database from ``{"A": [("a", "b"), ...]}``."""
        db = cls()
        for name, rows in relations.items():
            db.bulk(name, rows)
        return db

    def copy(self) -> "Database":
        """An independent copy that shares every cached table.

        The symbol table is *shared*, not copied: it is append-only,
        so rows encoded by the copy stay decodable by the original and
        vice versa — which is what lets a fixpoint engine copy the EDB
        and still hand back rows the session can decode.

        Cached join tables (hash and dense) and derived relations carry
        over too: an entry is an immutable ``(version, table)`` pair
        that is replaced, not mutated, on rebuild, so a copy that later
        mutates a relation simply bumps its own version and rebuilds
        into its own cache —
        while the common fixpoint discipline (engine copies the EDB,
        reads it, throws the copy away) pays each table build once per
        EDB version instead of once per evaluation.
        """
        db = Database.__new__(Database)
        db._init_state(self._symbols)
        for name, rows in self._relations.items():
            db._relations[name] = set(rows)
            db._arities[name] = self._arities[name]
        db._versions = dict(self._versions)
        db._hash_tables = dict(self._hash_tables)
        db._dense_tables = dict(self._dense_tables)
        db._dense_columns = dict(self._dense_columns)
        db._csr_columns = dict(self._csr_columns)
        db._derived = dict(self._derived)
        return db

    # -- mutation -------------------------------------------------------

    def _check_arity(self, name: str, row: tuple) -> None:
        known = self._arities.get(name)
        if known is None:
            self._arities[name] = len(row)
        elif known != len(row):
            raise _arity_mismatch(name, known, row)

    def check_arity(self, name: str, rows: Iterable[tuple]) -> None:
        """Raise the arity error inserting *rows* would raise, writing
        nothing: every row needs the relation's arity (the first
        row's, when *name* is new)."""
        known = self._arities.get(name)
        for row in rows:
            if known is None:
                known = len(row)
            elif known != len(row):
                raise _arity_mismatch(name, known, row)

    def add(self, name: str, row: tuple) -> bool:
        """Insert one value row; returns True when it was new.

        The arity is checked on the value row, before any of its
        constants is interned: a rejected row leaves the symbol table
        as it was, and the error shows the values, not their codes.
        """
        row = tuple(row)
        self._check_writable()
        self._check_arity(name, row)
        return self.add_encoded(name, self._symbols.encode_row(row))

    def _check_writable(self) -> None:
        if self.read_only:
            raise EvaluationError(
                "database is a read-only snapshot; writes go through "
                "the epoch manager (which publishes a new snapshot), "
                "never through a reader")

    def add_encoded(self, name: str, row: tuple) -> bool:
        """Insert one storage-space row (engine path — no encoding)."""
        self._check_writable()
        row = tuple(row)
        self._check_arity(name, row)
        rows = self._relations.setdefault(name, set())
        if row in rows:
            return False
        rows.add(row)
        if self._bulk_depth:
            self._bulk_dirty.add(name)  # one bump when the bulk ends
            return True
        self._versions[name] = self._versions.get(name, 0) + 1
        return True

    def remove(self, name: str, row: tuple) -> bool:
        """Delete one value row; returns True when it was present.

        Removal moves the version counter exactly like insertion, so
        cached hash tables never serve a deleted row.

        >>> db = Database.from_dict({"A": [("a", "b")]})
        >>> db.remove("A", ("a", "b")), db.remove("A", ("a", "b"))
        (True, False)
        """
        self._check_writable()
        encoded = self._lookup_pattern(tuple(row))
        if encoded is None:
            return False  # a never-seen constant is in no row
        return self.remove_encoded(name, encoded)

    def remove_encoded(self, name: str, row: tuple) -> bool:
        """Delete one storage-space row; True when it was present."""
        self._check_writable()
        row = tuple(row)
        rows = self._relations.get(name)
        if rows is None or row not in rows:
            return False
        rows.remove(row)
        if self._bulk_depth:
            self._bulk_dirty.add(name)
            return True
        self._versions[name] = self._versions.get(name, 0) + 1
        return True

    def bulk(self, name: str, rows: Iterable[tuple]) -> int:
        """Insert many value rows; returns the number actually new.

        Version upkeep is batched: one version bump per mutated
        relation when the outermost bulk operation ends, however many
        rows arrive, instead of one per row in :meth:`add`.
        """
        added = 0
        self._bulk_depth += 1
        try:
            for row in rows:
                added += self.add(name, row)
        finally:
            self._bulk_depth -= 1
            if not self._bulk_depth:
                self._flush_bulk()
        return added

    def bulk_encoded(self, name: str, rows: Iterable[tuple]) -> int:
        """Insert many storage-space rows; number actually new."""
        added = 0
        self._bulk_depth += 1
        try:
            for row in rows:
                added += self.add_encoded(name, row)
        finally:
            self._bulk_depth -= 1
            if not self._bulk_depth:
                self._flush_bulk()
        return added

    def bulk_remove(self, name: str, rows: Iterable[tuple]) -> int:
        """Delete many value rows; returns the number actually removed.

        The batched-invalidation discipline of :meth:`bulk` applies:
        one version bump per mutated relation at the end of the
        outermost bulk operation.
        """
        removed = 0
        self._bulk_depth += 1
        try:
            for row in rows:
                removed += self.remove(name, row)
        finally:
            self._bulk_depth -= 1
            if not self._bulk_depth:
                self._flush_bulk()
        return removed

    def _flush_bulk(self) -> None:
        """Apply the deferred invalidation for every dirty relation.

        Tracking dirtiness per relation (rather than a per-call "did I
        add anything" flag) makes nested bulk operations and mixed
        add/remove batches invalidate correctly: every relation that
        changed gets its bump, and only those.
        """
        for name in self._bulk_dirty:
            self._versions[name] = self._versions.get(name, 0) + 1
        self._bulk_dirty.clear()

    def version(self, name: str) -> int:
        """Mutation counter of the relation (0 when never touched)."""
        return self._versions.get(name, 0)

    def global_version(self) -> int:
        """Sum of all relation versions: a monotonic mutation epoch.

        Any insert/remove (bulk or not) strictly increases it, which is
        what the session's answer cache keys on.
        """
        return sum(self._versions.values())

    def declare(self, name: str, arity: int) -> None:
        """Register an (initially empty) relation with known arity."""
        self._check_writable()
        self._check_arity(name, (None,) * arity)
        self._relations.setdefault(name, set())

    # -- access ----------------------------------------------------------

    @property
    def relation_names(self) -> tuple[str, ...]:
        """All relation names, sorted."""
        return tuple(sorted(self._relations))

    def rows(self, name: str) -> frozenset[tuple]:
        """All value rows of a relation (empty when unknown — an absent
        EDB relation is an empty one, as in any Datalog engine)."""
        return self._symbols.decode_rows(self._relations.get(name, ()))

    def rows_encoded(self, name: str) -> frozenset[tuple]:
        """All storage-space rows of a relation (engine path)."""
        return frozenset(self._relations.get(name, ()))

    def count(self, name: str) -> int:
        """Number of rows in the relation (or built derived relation)."""
        rows = self._relations.get(name)
        return len(rows) if rows is not None else len(self._relation(name)[1])

    def arity(self, name: str) -> int | None:
        """Known arity of the relation, None when never seen."""
        return self._arities.get(name)

    def total_facts(self) -> int:
        """Number of rows across all relations."""
        return sum(len(rows) for rows in self._relations.values())

    def _relation(self, name: str) -> tuple:
        """``(version, rows)`` of what the join tables serve under
        *name*: a stored relation, or else a built derived relation
        (versioned by its key, so its tables go stale with it).  A
        stored relation wins, even an empty one: an engine that writes
        a predicate declares it first."""
        rows = self._relations.get(name)
        if rows is None:
            entry = self._derived.get(name)
            if entry is not None and entry[1] is not None:
                return entry
            rows = ()
        return self._versions.get(name, 0), rows

    def _version(self, name: str):
        """The version the join tables key *name* by: a stored
        relation's counter, a derived relation's key."""
        version = self._versions.get(name)
        return self._relation(name)[0] if version is None else version

    def derived(self, name: str, inputs: Iterable[str], build,
                key=()) -> tuple[tuple | None, bool]:
        """The rows of the derived relation *name*, which reads the
        relations *inputs*, and whether this call built them.

        An entry is keyed by *key* (what else defines its rows, such as
        the rules a session derives it by) and by the version of every
        input: a stored input's counter, a derived input's own key, so
        an entry goes stale with anything below it.  ``build()`` runs when
        no entry of *name* was built at that key; it returns the rows,
        or None to decline.  A decline is cached alike, so it is not
        retried until the key moves; a build that raises caches
        nothing.  A built entry counts one ``hash_builds`` and is
        served to :meth:`hash_table`, :meth:`dense_table` and their
        views under *name*, as a relation is, unless a stored relation
        holds that name, and :meth:`count` sees it.  It is no relation:
        no relation name, fact total or version of the store shows it,
        :meth:`copy` shares it like a join table and a pickled snapshot
        drops it.  Concurrent callers may each build it; every one
        stores whole rows in one assignment.
        """
        stamp = (key, tuple(self._version(input_name)
                            for input_name in inputs))
        entry = self._derived.get(name)
        if entry is not None and entry[0] == stamp:
            return entry[1], False
        rows = build()
        if rows is not None:
            rows = tuple(rows)  # a quarter of a set's memory; tables probe it
            self.hash_builds += 1
        self._derived[name] = (stamp, rows)
        return rows, True

    def hash_table(self, name: str, key_positions: tuple[int, ...]
                   ) -> dict:
        """The rows of *name* hashed by the *key_positions* columns.

        The table maps key → list of full rows; a single-column key is
        stored unwrapped (``row[p]``), a multi-column key as a tuple,
        and the empty key groups every row under ``()``.  Keys and rows
        are storage-space codes.  Tables are cached
        against the relation's version counter, so a semi-naive
        fixpoint builds each (relation, key) table exactly once however
        many rounds it runs.
        """
        cache_key = (name, key_positions)
        version = self._version(name)
        entry = self._hash_tables.get(cache_key)
        if entry is not None and entry[0] == version:
            return entry[1]
        rows = self._relation(name)[1]
        table: dict = {}
        if not key_positions:
            table[()] = list(rows)
        elif len(key_positions) == 1:
            position = key_positions[0]
            for row in rows:
                table.setdefault(row[position], []).append(row)
        else:
            for row in rows:
                table.setdefault(
                    tuple(row[p] for p in key_positions), []).append(row)
        self._hash_tables[cache_key] = (version, table)
        self.hash_builds += 1
        return table

    def dense_table(self, name: str, position: int) -> list:
        """The rows of *name* grouped by the code at *position*, as a
        plain list indexed by that code — the array-structured access
        path dense interning makes possible.  ``table[code]`` is the
        row bucket; codes carried by no stored row share one empty
        tuple, so a probing kernel can iterate every bucket without a
        miss branch.  An out-of-range code means "no rows" (new codes
        can be interned after the build; they cannot appear in any
        stored row of this version).

        Every bucket — empty or populated — is a *tuple*: one uniform
        immutable type, so downstream consumers (the fused probe, the
        CSR flattener) never special-case on bucket type and can never
        scribble on a cached view.

        Cached and invalidated exactly like hash tables, and counted in
        the same ``hash_builds``.
        """
        cache_key = (name, position)
        version = self._version(name)
        entry = self._dense_tables.get(cache_key)
        if entry is not None and entry[0] == version:
            return entry[1]
        table: list = [()] * len(self._symbols)
        for row in self._relation(name)[1]:
            code = row[position]
            bucket = table[code]
            if bucket:
                bucket.append(row)
            else:
                table[code] = [row]
        for code, bucket in enumerate(table):
            if bucket:
                table[code] = tuple(bucket)  # freeze: uniform buckets
        self._dense_tables[cache_key] = (version, table)
        self.hash_builds += 1
        return table

    def dense_column(self, name: str, key_position: int,
                     value_position: int) -> list:
        """A columnar view of :meth:`dense_table`: ``view[code]`` holds
        only the *value_position* column of the rows whose
        *key_position* column is ``code``.

        This is the emit shape of the fused final probe
        (:mod:`repro.engine.setjoin`): when the join's last step binds
        exactly one output column, probing this view hands that column
        back directly — no per-emitted-row ``row[position]`` indexing,
        no intermediate full-row tuples.  Buckets are uniformly tuples
        (empty buckets share one ``()``), mirroring
        :meth:`dense_table`.  The view is derived from the (already
        cached, already counted) dense table, so ``hash_builds``
        accounting is identical whether a fixpoint probes row buckets
        or column buckets.
        """
        cache_key = (name, key_position, value_position)
        version = self._version(name)
        entry = self._dense_columns.get(cache_key)
        if entry is not None and entry[0] == version:
            return entry[1]
        dense = self.dense_table(name, key_position)
        view = [()] * len(dense)
        for code, bucket in enumerate(dense):
            if bucket:
                view[code] = tuple(row[value_position]
                                   for row in bucket)
        self._dense_columns[cache_key] = (version, view)
        return view

    def dense_column_csr(self, name: str, key_position: int,
                         value_position: int) -> tuple:
        """The CSR flattening of :meth:`dense_column`: a
        ``(values, offsets)`` pair of flat ``array('q')`` int vectors
        where bucket *code* is ``values[offsets[code]:offsets[code+1]]``
        (``len(offsets)`` is bucket count + 1).

        This is the zero-object access path of the vectorised kernel
        (:mod:`repro.engine.vector`): both arrays expose the buffer
        protocol, so a numpy backend wraps them without copying and a
        pure-python backend slices them without building per-bucket
        tuples.  An out-of-range code means "no rows", exactly as for
        the list views.  Derived from the already-counted dense-column
        view — fetching it never moves ``hash_builds`` beyond what the
        row path pays.
        """
        cache_key = (name, key_position, value_position)
        version = self._version(name)
        entry = self._csr_columns.get(cache_key)
        if entry is not None and entry[0] == version:
            return entry[1]
        view = self.dense_column(name, key_position, value_position)
        values = array("q")
        offsets = array("q", [0])
        total = 0
        for bucket in view:
            if bucket:
                values.extend(bucket)
                total += len(bucket)
            offsets.append(total)
        csr = (values, offsets)
        self._csr_columns[cache_key] = (version, csr)
        return csr

    def metrics_snapshot(self) -> dict:
        """Point-in-time state for the telemetry layer's gauges.

        Plain data, no metrics dependency — the registry side lives in
        :func:`repro.metrics.instrument.export_database_gauges`, which
        calls this at scrape time (``GET /metrics``), keeping the
        query path free of any sampling cost.

        ``symbols`` is the interned-constant count;
        ``encoded_bytes_estimate`` approximates the storage footprint:
        8 bytes per stored tuple slot plus the dictionary's payload (each distinct value once) — the point of
        the gauge is watching the dictionary grow, not byte-exact
        accounting.
        """
        slots = sum(len(rows) * self._arities.get(name, 0)
                    for name, rows in self._relations.items())
        payload = sum(len(str(value)) + 49 for value in self._symbols)
        return {
            "relations": {
                name: {"rows": len(rows),
                       "version": self._versions.get(name, 0)}
                for name, rows in sorted(self._relations.items())},
            "symbols": len(self._symbols),
            "encoded_bytes_estimate": slots * 8 + payload,
        }

    def active_domain(self) -> frozenset:
        """Every constant appearing anywhere in the database."""
        values: set = set()
        for rows in self._relations.values():
            for row in rows:
                values.update(row)
        decode = self._symbols.decode
        return frozenset(decode(code) for code in values)

    # -- snapshots --------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle as a snapshot: rows, arities, versions and the
        symbol table.

        Derived structures (the hash and dense tables, the derived
        relations) are process-local caches — they are dropped at the
        serialization boundary and rebuilt lazily on first use in the
        receiver, where the versioned cache makes each rebuild a
        one-time cost.
        The rows are int tuples and the dictionary crosses the wire
        exactly once.
        """
        return {
            "relations": {name: set(rows)
                          for name, rows in self._relations.items()},
            "arities": dict(self._arities),
            "versions": dict(self._versions),
            "symbols": self._symbols,
        }

    def __setstate__(self, state: dict) -> None:
        self._init_state(state["symbols"])
        self._relations = state["relations"]
        self._arities = state["arities"]
        self._versions = state["versions"]

    def __contains__(self, name_row: tuple[str, tuple]) -> bool:
        name, row = name_row
        encoded = self._lookup_pattern(tuple(row))
        return (encoded is not None
                and encoded in self._relations.get(name, ()))

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}:{len(rows)}"
                          for name, rows in sorted(self._relations.items()))
        return f"Database({parts})"
