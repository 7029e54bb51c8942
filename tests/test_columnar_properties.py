"""Columnar answer-pipeline laws: lazy ``AnswerSet`` ≡ eager decode.

The lazy boundary is pure representation: every engine must hand back
the same relation whether the caller reads it as a not-yet-decoded
:class:`~repro.ra.answers.AnswerSet` or as the eagerly decoded
``frozenset[tuple]`` of the pre-columnar API.  Three layers pin this
down:

* **answer-set laws** — hypothesis round-trips over
  :class:`AnswerSet`: per-column decode ≡ per-row decode, the
  columns/rows transpose law, membership/equality/hash/iteration
  agreeing with the decoded frozenset, and the laziness contract
  (``len``/``in``/same-table ``==`` never decode; iteration decodes
  exactly once);
* **engine parity** — classes A1–C × all five engines: the interned
  run returns a *lazy* ``AnswerSet`` whose decode is bit-identical to
  the raw twin's frozenset, with identical stats and traces;
* **session sweep** — interned and raw sessions agree on every query
  of a scripted battery, lazy on one side, verbatim on the other.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_system
from repro.engine import (CompiledEngine, MaterializedRecursion,
                          NaiveEngine, Query, SemiNaiveEngine,
                          TopDownEngine)
from repro.engine.stats import EvaluationStats
from repro.engine.trace import Tracer
from repro.ra import AnswerSet
from repro.ra.symbols import SymbolTable
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, random_edb

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


def _answer_set(rows: list[tuple]) -> tuple[AnswerSet, SymbolTable]:
    table = SymbolTable()
    encoded = frozenset(table.encode_row(row) for row in rows)
    return AnswerSet(encoded, table), table


# -- answer-set laws ----------------------------------------------------


class TestAnswerSetLaws:
    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(_constants, _constants),
                         max_size=30))
    def test_decode_agrees_with_per_row_decode(self, rows):
        answers, table = _answer_set(rows)
        eager = frozenset(table.decode_row(row)
                          for row in answers.encoded)
        assert answers.decoded() == eager == frozenset(rows)
        assert set(answers) == set(eager)
        assert answers.sorted_rows() == sorted(eager, key=repr)
        # the decode is cached: same object, decode timed exactly once
        assert answers.decoded() is answers.decoded()
        assert answers.decode_seconds is not None

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(_constants, _constants),
                         min_size=1, max_size=30))
    def test_columns_transpose_law(self, rows):
        answers, _ = _answer_set(rows)
        columns = answers.columns()
        assert all(isinstance(column, array)
                   and column.typecode == "q" for column in columns)
        assert len(columns) == answers.arity == 2
        assert all(len(column) == len(answers) for column in columns)
        assert frozenset(zip(*columns)) == answers.encoded
        # building the columns is not a decode
        assert not answers.is_decoded

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(_constants, _constants),
                         max_size=20),
           probe=st.tuples(_constants, _constants))
    def test_membership_never_decodes(self, rows, probe):
        answers, _ = _answer_set(rows)
        for row in rows:
            assert row in answers
        assert (probe in answers) == (probe in frozenset(rows))
        # a constant the table never saw is a guaranteed miss
        assert ("\x00never-interned", "x") not in answers
        assert "not-a-tuple" not in answers
        assert len(answers) == len(frozenset(rows))
        assert not answers.is_decoded

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(_constants, _constants),
                         max_size=20))
    def test_equality_and_hash_agree_with_frozenset(self, rows):
        answers, table = _answer_set(rows)
        values = frozenset(rows)
        # both comparison directions, and the negations
        assert answers == values and values == answers
        assert not (answers != values) and not (values != answers)
        assert hash(answers) == hash(values)
        assert (answers == list(rows)) is False  # non-set: no decode law
        # same symbol table: equality stays in code space
        twin = AnswerSet(answers.encoded, table)
        assert answers == twin and not twin.is_decoded
        # different tables with the same values still compare equal
        other, _ = _answer_set(rows)
        assert answers == other

    def test_same_table_equality_is_lazy(self):
        answers, table = _answer_set([("a", "b"), ("c", "d")])
        twin = AnswerSet(answers.encoded, table)
        assert answers == twin
        assert not answers.is_decoded and not twin.is_decoded
        assert answers != AnswerSet(frozenset([(0, 1)]), table)
        assert not answers.is_decoded

    def test_set_operators_return_plain_frozensets(self):
        answers, _ = _answer_set([("a", "b"), ("c", "d")])
        union = answers | {("x", "y")}
        assert isinstance(union, frozenset)
        assert union == {("a", "b"), ("c", "d"), ("x", "y")}
        assert answers & {("a", "b")} == {("a", "b")}
        assert answers - {("a", "b")} == {("c", "d")}

    def test_empty_and_repr(self):
        empty = AnswerSet(frozenset(), SymbolTable())
        assert len(empty) == 0 and empty.arity == 0
        assert empty.columns() == ()
        assert empty.decoded() == frozenset() == empty
        assert empty == frozenset()
        assert "lazy" in repr(AnswerSet(frozenset(), SymbolTable()))
        answers, _ = _answer_set([("a", "b")])
        assert "1 rows × 2 columns" in repr(answers)
        answers.decoded()
        assert "decoded" in repr(answers)


# -- engine parity: lazy AnswerSet ≡ eager decode -----------------------


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


#: fields that record *which* delta-loop backend ran, not the logical
#: work done: the interned twin may take the vectorised kernel while
#: the raw twin cannot (it requires dictionary-encoded rows); every
#: other counter stays bit-identical across backends (asserted in
#: tests/test_vector_properties.py)
_BACKEND_FIELDS = frozenset({"backend", "vector_batches",
                             "vector_rows"})


def _comparable_stats(stats):
    shape = dict(vars(stats))
    for field in _BACKEND_FIELDS:
        shape.pop(field, None)
    return shape


class TestEngineParity:
    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 7), tuples=st.integers(4, 10))
    def test_lazy_result_is_bit_identical(self, paper_class, engine,
                                          seed, tuples):
        system, interned, raw, query = _twin_workload(
            paper_class, seed, tuples)
        for db in (interned, raw):  # warm the process-wide plan cache
            ENGINES[engine]().evaluate(system, db.copy(), query,
                                       EvaluationStats())
        stats_i, stats_r = EvaluationStats(), EvaluationStats()
        trace_i, trace_r = Tracer(), Tracer()
        answers_i = ENGINES[engine]().evaluate(
            system, interned.copy(), query, stats_i, trace=trace_i)
        answers_r = ENGINES[engine]().evaluate(
            system, raw.copy(), query, stats_r, trace=trace_r)
        # the interned boundary is a *lazy* AnswerSet whose stats and
        # trace were finished before any decode could have happened
        assert isinstance(answers_i, AnswerSet)
        assert not answers_i.is_decoded
        assert isinstance(answers_r, frozenset)
        assert stats_i.answers == len(answers_i) == len(answers_r)
        assert _comparable_stats(stats_i) == _comparable_stats(stats_r)
        assert _trace_shape(trace_i) == _trace_shape(trace_r)
        # per-column lazy decode ≡ the raw twin, and ≡ eager per-row
        # decode of the same encoded rows
        table = answers_i.symbols
        eager = frozenset(table.decode_row(row)
                          for row in answers_i.encoded)
        assert answers_i.decoded() == eager == answers_r
        assert answers_i == answers_r and answers_r == answers_i

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 7))
    def test_incremental_rows_are_lazy_and_identical(self, seed):
        system = parse_system("P(x, y) :- A(x, z), P(z, y).")
        base = random_edb(system, nodes=5, tuples_per_relation=6,
                          seed=seed)
        view_i = MaterializedRecursion(system, base)
        view_r = MaterializedRecursion(system, base.decoded())
        rows = view_i.rows
        assert isinstance(rows, AnswerSet) and not rows.is_decoded
        assert rows == view_r.rows
        added_i = view_i.insert_many("A", [("c0", "c3"), ("c3", "c0")])
        added_r = view_r.insert_many("A", [("c0", "c3"), ("c3", "c0")])
        assert isinstance(added_i, AnswerSet)
        assert added_i == added_r
        assert view_i.rows == view_r.rows


# -- session sweep: raw vs interned, lazy on one side -------------------


def _tc_session(intern):
    session = DeductiveDatabase(intern=intern)
    session.load("P(x, y) :- A(x, z), P(z, y).\n"
                 "P(x, y) :- A(x, y).\n")
    session.add_facts("A", [(f"n{i}", f"n{i + 1}") for i in range(5)])
    return session


class TestSessionSweep:
    BATTERY = [
        ("P(X, Y)", "compiled"), ("P(n0, Y)", "compiled"),
        ("P(X, Y)", "semi-naive"), ("P(n0, Y)", "top-down"),
        ("P(X, Y)", "naive"), ("A(n0, Y)", "compiled"),
        ("P(never_seen, Y)", "compiled"),
    ]

    def test_raw_and_interned_sessions_agree(self):
        interned, raw = _tc_session(True), _tc_session(False)
        for query, engine in self.BATTERY:
            stats_i, stats_r = EvaluationStats(), EvaluationStats()
            answers_i = interned.query(query, stats_i, engine=engine)
            answers_r = raw.query(query, stats_r, engine=engine)
            if "never_seen" in query:
                # the unseen-constant short-circuit answers before any
                # engine runs; an empty frozenset is its result shape
                assert answers_i == frozenset()
            else:
                assert isinstance(answers_i, AnswerSet), query
            assert isinstance(answers_r, frozenset), query
            assert answers_i == answers_r and answers_r == answers_i
            assert stats_i.answers == stats_r.answers == len(answers_r)

    def test_cached_answers_stay_lazy_until_read(self):
        session = _tc_session(True)
        first, second = EvaluationStats(), EvaluationStats()
        answers = session.query("P(X, Y)", first, engine="semi-naive")
        assert isinstance(answers, AnswerSet)
        assert not answers.is_decoded
        again = session.query("P(X, Y)", second, engine="semi-naive")
        # the cache returns the same lazy object — a hit neither
        # decodes nor copies, and the hit still counts
        assert again is answers and not again.is_decoded
        assert second.answer_cache_hits == 1
        # reading it decodes once; the cached entry now carries the
        # decoded columns for every later hit
        assert sorted(again) == sorted(
            {(f"n{i}", f"n{j}") for i in range(5)
             for j in range(i + 1, 6)})
        assert session.query("P(X, Y)", engine="semi-naive").is_decoded

    def test_edb_lookup_is_lazy_and_filtered(self):
        session = _tc_session(True)
        answers = session.query("A(n0, Y)")
        assert isinstance(answers, AnswerSet)
        assert not answers.is_decoded
        assert ("n0", "n1") in answers and not answers.is_decoded
        assert answers == {("n0", "n1")}
