"""Dictionary-encoding laws.

Every database stores dense int codes; the symbol table is the only
storage representation.  Three layers pin it down:

* **table laws** — hypothesis round-trips over :class:`SymbolTable`
  (dense codes, ``decode_rows`` ≡ per-row decode, pickled snapshots);
* **storage laws** — the code-indexed dense access path and its
  column/CSR views, and incremental maintenance that is blind to the
  order codes were issued in;
* **session laws** — the unseen-constant short circuit and the answer
  cache.

Engine answers against an independent oracle, their independence
from the order codes were issued in, and the lazy answer boundary are
covered in ``tests/test_columnar_properties.py``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_system
from repro.engine import MaterializedRecursion
from repro.engine.stats import EvaluationStats
from repro.engine.trace import Tracer
from repro.ra import AnswerSet, Database
from repro.ra.symbols import SymbolTable
from repro.session import DeductiveDatabase
from repro.workloads import random_edb

from .test_columnar_properties import _recoded

#: hashable constants that cannot collide across types under ``==``
#: (no floats/bools: ``1 == 1.0 == True`` would alias dictionary keys)
_constants = st.one_of(st.text(max_size=8), st.integers())


# -- symbol-table laws --------------------------------------------------


class TestSymbolTableLaws:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(_constants, max_size=40))
    def test_codes_are_dense_and_roundtrip(self, values):
        table = SymbolTable()
        codes = [table.encode(v) for v in values]
        # dense: the issued codes are exactly 0 .. len(table)-1
        assert set(codes) == set(range(len(table)))
        # stable: re-encoding returns the same code
        assert [table.encode(v) for v in values] == codes
        # round-trip: decode inverts encode
        assert [table.decode(c) for c in codes] == values
        assert list(table) == [table.decode(c)
                               for c in range(len(table))]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(_constants, _constants),
                         max_size=30))
    def test_decode_rows_equals_per_row_decode(self, rows):
        table = SymbolTable()
        encoded = [table.encode_row(row) for row in rows]
        assert table.decode_rows(encoded) == frozenset(
            table.decode_row(row) for row in encoded)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(_constants, unique=True, max_size=20),
           probe=_constants)
    def test_snapshot_pickle_laws(self, values, probe):
        table = SymbolTable(values)
        if probe not in table:
            assert table.lookup(probe) is None
        # the snapshot pickles with codes and values intact
        clone = pickle.loads(pickle.dumps(table))
        assert list(clone) == list(table)
        assert [clone.lookup(v) for v in values] == list(
            range(len(values)))
        for code, value in enumerate(values):
            assert clone.encode(value) == code
            assert clone.decode(code) == value

    def test_duplicate_seed_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable(["a", "b", "a"])


# -- storage laws -------------------------------------------------------


class TestDenseTable:
    def test_buckets_indexed_by_code(self):
        db = Database.from_dict({"A": [("a", "b"), ("a", "c"),
                                       ("b", "c")]})
        table = db.dense_table("A", 0)
        code_a, code_b = db.symbols.lookup("a"), db.symbols.lookup("b")
        assert {tuple(r) for r in table[code_a]} == {
            db.encode_row(("a", "b")), db.encode_row(("a", "c"))}
        assert len(table[code_b]) == 1
        # codes carried by no stored row share the empty bucket, and
        # the table spans every interned code
        empty = [bucket for bucket in table if bucket == ()]
        assert len(table) == len(db.symbols)
        assert empty, "codes not in column 0 must have empty buckets"

    def test_buckets_are_uniformly_tuples(self):
        # regression: dense_table used to mix bucket types — the
        # shared empty bucket was a tuple while populated buckets
        # stayed mutable lists, so consumers branching on type (or
        # aliasing a bucket) saw different behaviour per code
        db = Database.from_dict({"A": [("a", "b"), ("a", "c"),
                                       ("b", "c")]})
        table = db.dense_table("A", 0)
        assert all(type(bucket) is tuple for bucket in table)
        empties = [bucket for bucket in table if not bucket]
        assert empties and all(bucket is empties[0]
                               for bucket in empties)

    def test_csr_matches_dense_column(self):
        db = Database.from_dict({"A": [("a", "b"), ("a", "c"),
                                       ("b", "c")]})
        column = db.dense_column("A", 0, 1)
        csr = db.dense_column_csr("A", 0, 1)
        assert csr is not None
        values, offsets = csr
        assert len(offsets) == len(db.symbols) + 1
        for code in range(len(db.symbols)):
            start, end = offsets[code], offsets[code + 1]
            assert sorted(values[start:end]) == sorted(column[code])
        # version-cached: same object until the relation mutates
        assert db.dense_column_csr("A", 0, 1) is csr
        db.bulk("A", [("c", "d")])
        assert db.dense_column_csr("A", 0, 1) is not csr

    def test_invalidated_by_mutation(self):
        db = Database.from_dict({"A": [("a", "b")]})
        stale = db.dense_table("A", 0)
        db.bulk("A", [("z", "z")])
        fresh = db.dense_table("A", 0)
        code_z = db.symbols.lookup("z")
        assert fresh is not stale
        # populated buckets come back frozen (tuples) so every view
        # built over the dense table is safely shareable
        assert fresh[code_z] == (db.encode_row(("z", "z")),)


# -- code-order parity --------------------------------------------------


class TestModeParity:
    """The same facts interned in two code orders: which code a
    constant got must not leak into incremental maintenance."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 7))
    def test_incremental_maintenance_identical(self, seed):
        system = parse_system("P(x, y) :- A(x, z), P(z, y).")
        base = random_edb(system, nodes=5, tuples_per_relation=6,
                          seed=seed)
        inserts = [("c0", "c3"), ("c9", "c0"), ("c3", "c9")]
        view = MaterializedRecursion(system, base)
        twin = MaterializedRecursion(system, _recoded(base))
        assert view.rows == twin.rows
        added = view.insert_many("A", inserts)
        twin_added = twin.insert_many("A", inserts)
        assert added == twin_added
        assert view.rows == twin.rows
        assert view.stats.delta_sizes == twin.stats.delta_sizes
        # membership agrees row-by-row, whatever the closure contains
        for row in [("c9", "c0"), ("c0", "c3"), ("c0", "c0")]:
            assert (row in view) == (row in twin)


# -- session-level encoding behaviour -----------------------------------


def _tc_session():
    session = DeductiveDatabase()
    session.load("P(x, y) :- A(x, z), P(z, y).\n"
                 "P(x, y) :- A(x, y).\n")
    session.add_facts("A", [(f"n{i}", f"n{i + 1}") for i in range(5)])
    return session


class TestUnseenConstantShortCircuit:
    @pytest.mark.parametrize("engine",
                             ["naive", "semi-naive", "compiled",
                              "top-down"])
    def test_unseen_constant_is_empty_without_fixpoint(self, engine):
        session = _tc_session()
        stats = EvaluationStats()
        answers = session.query("P(never_seen, Y)", stats,
                                engine=engine)
        assert isinstance(answers, AnswerSet)
        assert answers == frozenset()
        assert stats.answers == 0
        # the fixpoint never ran: no rounds, no probes
        assert stats.rounds == 0 and stats.probes == 0

    def test_seen_constants_still_evaluate(self):
        session = _tc_session()
        assert session.query("P(n0, Y)") == frozenset(
            {("n0", f"n{j}") for j in range(1, 6)})


class TestAnswerCache:
    def test_repeat_query_hits_and_counts(self):
        session = _tc_session()
        first, second = EvaluationStats(), EvaluationStats()
        answers = session.query("P(X, Y)", first, engine="semi-naive")
        again = session.query("P(X, Y)", second, engine="semi-naive")
        assert answers == again
        assert first.answer_cache_hits == 0
        assert second.answer_cache_hits == 1
        assert second.engine == first.engine
        assert second.answers == len(answers)

    def test_distinct_engines_and_patterns_miss(self):
        session = _tc_session()
        session.query("P(X, Y)", engine="semi-naive")
        for follow_up in [("P(X, Y)", "naive"),
                          ("P(n0, Y)", "semi-naive")]:
            stats = EvaluationStats()
            session.query(follow_up[0], stats, engine=follow_up[1])
            assert stats.answer_cache_hits == 0

    def test_fact_mutation_invalidates(self):
        session = _tc_session()
        before = session.query("P(n0, Y)")
        session.add_fact("A", "n5", "n6")
        stats = EvaluationStats()
        after = session.query("P(n0, Y)", stats)
        assert stats.answer_cache_hits == 0
        assert after == before | {("n0", "n6")}

    def test_rule_change_invalidates(self):
        session = _tc_session()
        session.query("P(X, Y)")
        session.add_rule("Q(x) :- A(x, y).")
        stats = EvaluationStats()
        session.query("P(X, Y)", stats)
        assert stats.answer_cache_hits == 0

    def test_traced_queries_bypass_the_cache(self):
        session = _tc_session()
        session.query("P(X, Y)", engine="semi-naive")
        stats = EvaluationStats()
        tracer = Tracer()
        session.query("P(X, Y)", stats, engine="semi-naive",
                      trace=tracer)
        assert stats.answer_cache_hits == 0
        assert tracer.trace is not None and tracer.trace.rounds
