"""Dictionary-encoding laws: ``intern=True`` ≡ ``intern=False``.

The symbol table is pure representation: every engine must produce
bit-identical answers, per-round trace deltas and work counters
whether the database stores raw value tuples or dense int codes.
Three layers pin this down:

* **table laws** — hypothesis round-trips over :class:`SymbolTable`
  (dense codes, ``decode_rows`` ≡ per-row decode, pickled snapshots);
* **storage laws** — the dense access path and the pickled snapshot
  (int rows must beat string rows);
* **mode parity** — classes A1–C × all five engines, interned and raw
  twins of the same EDB, compared on answers, stats and traces.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, MaterializedRecursion,
                          NaiveEngine, Query, SemiNaiveEngine,
                          TopDownEngine)
from repro.engine.stats import EvaluationStats
from repro.engine.trace import Tracer
from repro.ra import Database
from repro.ra.symbols import SymbolTable
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, chain, random_edb

#: one catalogue representative per paper class A1 … C
CLASS_ENTRIES = {
    "A1": "s2a", "A3": "s4", "A4": "s5", "A5": "s1a",
    "B": "s8", "C": "s9",
}

#: the four evaluate()-shaped engines; the fifth (incremental) has an
#: insertion API and gets its own parity test below
ENGINES = {
    "naive": NaiveEngine,
    "semi-naive": SemiNaiveEngine,
    "compiled": CompiledEngine,
    "top-down": TopDownEngine,
}

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

    def test_raw_database_has_no_dense_path(self):
        db = Database.from_dict({"A": [("a", "b")]}, intern=False)
        assert db.dense_table("A", 0) is None

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

    def test_raw_database_has_no_csr(self):
        db = Database.from_dict({"A": [("a", "b")]}, intern=False)
        assert db.dense_column_csr("A", 0, 1) is None

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


class TestSnapshotSize:
    def test_interned_pickle_is_smaller(self):
        edges = chain(200)
        interned = Database.from_dict({"A": edges})
        raw = Database.from_dict({"A": edges}, intern=False)
        assert interned.rows("A") == raw.rows("A")
        assert len(pickle.dumps(interned)) < len(pickle.dumps(raw))


# -- mode parity: classes A1–C × engines --------------------------------


def _twin_workload(paper_class, seed, tuples):
    system = CATALOGUE[CLASS_ENTRIES[paper_class]].system()
    interned = random_edb(system, nodes=5, tuples_per_relation=tuples,
                          seed=seed)
    raw = interned.decoded()
    assert interned.interned and not raw.interned
    query = Query.all_free(system.predicate, system.dimension)
    return system, interned, raw, query


def _trace_shape(tracer):
    """The mode-independent part of a trace: per-round kinds, delta
    sizes and work counters (timings excluded)."""
    trace = tracer.trace
    return [(s.kind, s.delta_in, s.delta_out, s.probes, s.derived,
             s.hash_builds) for s in trace.rounds]


#: fields naming *which* delta-loop backend ran, not the logical work
#: done: interned databases may take the vectorised kernel while raw
#: ones cannot (it requires dictionary-encoded rows); all other
#: counters stay bit-identical across backends (asserted in
#: tests/test_vector_properties.py)
_BACKEND_FIELDS = frozenset({"backend", "vector_batches",
                             "vector_rows"})


def _comparable_stats(stats):
    shape = dict(vars(stats))
    for field in _BACKEND_FIELDS:
        shape.pop(field, None)
    return shape


class TestModeParity:
    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 7), tuples=st.integers(4, 10))
    def test_answers_stats_and_traces_identical(self, paper_class,
                                                engine, seed, tuples):
        system, interned, raw, query = _twin_workload(
            paper_class, seed, tuples)
        # warm the process-wide plan cache for both code spaces (the
        # cache key includes the symbol-table token, so each fresh
        # database misses on its first evaluation)
        for db in (interned, raw):
            ENGINES[engine]().evaluate(system, db.copy(), query,
                                       EvaluationStats())
        stats_i, stats_r = EvaluationStats(), EvaluationStats()
        trace_i, trace_r = Tracer(), Tracer()
        answers_i = ENGINES[engine]().evaluate(
            system, interned.copy(), query, stats_i, trace=trace_i)
        answers_r = ENGINES[engine]().evaluate(
            system, raw.copy(), query, stats_r, trace=trace_r)
        assert answers_i == answers_r
        assert _comparable_stats(stats_i) == _comparable_stats(stats_r)
        assert _trace_shape(trace_i) == _trace_shape(trace_r)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 7))
    def test_incremental_maintenance_identical(self, seed):
        system = parse_system("P(x, y) :- A(x, z), P(z, y).")
        base = random_edb(system, nodes=5, tuples_per_relation=6,
                          seed=seed)
        inserts = [("c0", "c3"), ("c9", "c0"), ("c3", "c9")]
        view_i = MaterializedRecursion(system, base)
        view_r = MaterializedRecursion(system, base.decoded())
        assert view_i.rows == view_r.rows
        added_i = view_i.insert_many("A", inserts)
        added_r = view_r.insert_many("A", inserts)
        assert added_i == added_r
        assert view_i.rows == view_r.rows
        assert view_i.stats.delta_sizes == view_r.stats.delta_sizes
        # membership agrees row-by-row, whatever the closure contains
        for row in [("c9", "c0"), ("c0", "c3"), ("c0", "c0")]:
            assert (row in view_i) == (row in view_r)


# -- session-level encoding behaviour -----------------------------------


def _tc_session(intern):
    session = DeductiveDatabase(intern=intern)
    session.load("P(x, y) :- A(x, z), P(z, y).\n"
                 "P(x, y) :- A(x, y).\n")
    session.add_facts("A", [(f"n{i}", f"n{i + 1}") for i in range(5)])
    return session


class TestUnseenConstantShortCircuit:
    @pytest.mark.parametrize("engine",
                             ["naive", "semi-naive", "compiled",
                              "top-down"])
    def test_unseen_constant_is_empty_without_fixpoint(self, engine):
        session = _tc_session(intern=True)
        stats = EvaluationStats()
        answers = session.query("P(never_seen, Y)", stats,
                                engine=engine)
        assert answers == frozenset()
        assert stats.answers == 0
        # the fixpoint never ran: no rounds, no probes
        assert stats.rounds == 0 and stats.probes == 0

    def test_raw_session_agrees_on_the_answer(self):
        for intern in (True, False):
            session = _tc_session(intern)
            assert session.query("P(never_seen, Y)") == frozenset()

    def test_seen_constants_still_evaluate(self):
        session = _tc_session(intern=True)
        assert session.query("P(n0, Y)") == frozenset(
            {("n0", f"n{j}") for j in range(1, 6)})


class TestAnswerCache:
    def test_repeat_query_hits_and_counts(self):
        session = _tc_session(intern=True)
        first, second = EvaluationStats(), EvaluationStats()
        answers = session.query("P(X, Y)", first, engine="semi-naive")
        again = session.query("P(X, Y)", second, engine="semi-naive")
        assert answers == again
        assert first.answer_cache_hits == 0
        assert second.answer_cache_hits == 1
        assert second.engine == first.engine
        assert second.answers == len(answers)

    def test_distinct_engines_and_patterns_miss(self):
        session = _tc_session(intern=True)
        session.query("P(X, Y)", engine="semi-naive")
        for follow_up in [("P(X, Y)", "naive"),
                          ("P(n0, Y)", "semi-naive")]:
            stats = EvaluationStats()
            session.query(follow_up[0], stats, engine=follow_up[1])
            assert stats.answer_cache_hits == 0

    def test_fact_mutation_invalidates(self):
        session = _tc_session(intern=True)
        before = session.query("P(n0, Y)")
        session.add_fact("A", "n5", "n6")
        stats = EvaluationStats()
        after = session.query("P(n0, Y)", stats)
        assert stats.answer_cache_hits == 0
        assert after == before | {("n0", "n6")}

    def test_rule_change_invalidates(self):
        session = _tc_session(intern=True)
        session.query("P(X, Y)")
        session.add_rule("Q(x) :- A(x, y).")
        stats = EvaluationStats()
        session.query("P(X, Y)", stats)
        assert stats.answer_cache_hits == 0

    def test_traced_queries_bypass_the_cache(self):
        session = _tc_session(intern=True)
        session.query("P(X, Y)", engine="semi-naive")
        stats = EvaluationStats()
        tracer = Tracer()
        session.query("P(X, Y)", stats, engine="semi-naive",
                      trace=tracer)
        assert stats.answer_cache_hits == 0
        assert tracer.trace is not None and tracer.trace.rounds
