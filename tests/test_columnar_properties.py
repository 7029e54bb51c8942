"""Columnar answer-pipeline laws: lazy ``AnswerSet`` ≡ eager decode.

The lazy boundary is pure representation: every engine must hand back
the same relation whether the caller reads it as a not-yet-decoded
:class:`~repro.ra.answers.AnswerSet` or decodes it eagerly row by
row.  Three layers pin this down:

* **answer-set laws** — hypothesis round-trips over
  :class:`AnswerSet`: per-column decode ≡ per-row decode, the
  columns/rows transpose law, membership/equality/hash/iteration
  agreeing with the decoded frozenset, and the laziness contract
  (``len``/``in``/same-table ``==`` never decode; iteration decodes
  exactly once);
* **engine parity** — classes A1–C × the four ``evaluate()`` engines
  on tiny EDBs: answers equal the ground-instantiation oracle
  (``tests/oracle.py``), come back as an un-decoded ``AnswerSet`` whose
  stats and trace were finished before any decode, and decode lazily
  per column to exactly the rows an eager per-row decode gives.  The
  same facts interned in another order give identical answers, stats
  and trace shapes, and the incremental engine agrees with a fresh
  fixpoint after the same inserts;
* **session sweep** — every query of a scripted battery (engines, EDB
  lookup, view, unseen constant) returns a correct ``AnswerSet``.
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
from repro.ra import AnswerSet, Database
from repro.ra.symbols import SymbolTable
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, random_edb

from .oracle import oracle_evaluate

#: one catalogue representative per paper class A1 … C
CLASS_ENTRIES = {
    "A1": "s2a", "A3": "s4", "A4": "s5", "A5": "s1a",
    "B": "s8", "C": "s9",
}

#: the four evaluate()-shaped engines; the fifth (incremental) has an
#: insertion API and gets its own test below
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


# -- engine parity: oracle answers, lazy AnswerSet ≡ eager decode ------


def _recoded(db: Database) -> Database:
    """The facts of *db* in a fresh database whose symbol table issued
    the codes in the reverse of *db*'s order, so with two or more
    constants the code assignment differs."""
    twin = Database()
    for value in reversed(list(db.symbols)):
        twin.encode_const(value)
    for name in db.relation_names:
        twin.bulk(name, db.rows(name))
    return twin


def _trace_shape(tracer):
    """The representation-independent part of a trace: per-round
    kinds, delta sizes and work counters (timings excluded)."""
    return [(s.kind, s.delta_in, s.delta_out, s.probes, s.derived,
             s.hash_builds) for s in tracer.trace.rounds]


class TestEngineParity:
    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 7))
    def test_lazy_result_is_bit_identical(self, paper_class, engine,
                                          seed):
        system = CATALOGUE[CLASS_ENTRIES[paper_class]].system()
        # tiny, as in tests/test_oracle.py: the oracle is exponential
        db = random_edb(system, nodes=3, tuples_per_relation=4,
                        seed=seed)
        query = Query.all_free(system.predicate, system.dimension)
        stats, tracer = EvaluationStats(), Tracer()
        answers = ENGINES[engine]().evaluate(system, db.copy(), query,
                                             stats, trace=tracer)
        # the boundary is a *lazy* AnswerSet whose stats and trace
        # were finished before any decode could have happened
        assert isinstance(answers, AnswerSet)
        assert not answers.is_decoded
        assert stats.answers == tracer.trace.answers == len(answers)
        # per-column lazy decode ≡ eager per-row decode of the same
        # encoded rows ≡ the ground-instantiation oracle
        table = answers.symbols
        eager = frozenset(table.decode_row(row)
                          for row in answers.encoded)
        assert answers.sorted_rows() == sorted(eager, key=repr)
        assert answers.decoded() == eager == oracle_evaluate(system, db)

    @pytest.mark.parametrize("paper_class", sorted(CLASS_ENTRIES))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 7), tuples=st.integers(4, 10))
    def test_code_order_is_invisible(self, paper_class, engine, seed,
                                     tuples):
        """Which code a constant got must not leak into answers,
        stats or trace shapes (the plan tie-break and the top-down
        pop order are the rules that keep this)."""
        system = CATALOGUE[CLASS_ENTRIES[paper_class]].system()
        db = random_edb(system, nodes=5, tuples_per_relation=tuples,
                        seed=seed)
        twin = _recoded(db)
        query = Query.all_free(system.predicate, system.dimension)
        # warm the process-wide plan cache for both code spaces (the
        # cache key includes the symbol-table token, so each fresh
        # database misses on its first evaluation)
        for base in (db, twin):
            ENGINES[engine]().evaluate(system, base.copy(), query,
                                       EvaluationStats())
        stats, twin_stats = EvaluationStats(), EvaluationStats()
        trace, twin_trace = Tracer(), Tracer()
        answers = ENGINES[engine]().evaluate(
            system, db.copy(), query, stats, trace=trace)
        twin_answers = ENGINES[engine]().evaluate(
            system, twin.copy(), query, twin_stats, trace=twin_trace)
        assert answers == twin_answers
        assert vars(stats) == vars(twin_stats)
        assert _trace_shape(trace) == _trace_shape(twin_trace)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 7))
    def test_incremental_rows_are_lazy_and_identical(self, seed):
        system = parse_system("P(x, y) :- A(x, z), P(z, y).")
        base = random_edb(system, nodes=5, tuples_per_relation=6,
                          seed=seed)
        inserts = [("c0", "c3"), ("c9", "c0"), ("c3", "c9")]
        view = MaterializedRecursion(system, base)
        before = SemiNaiveEngine().evaluate(system, base)
        rows = view.rows
        assert isinstance(rows, AnswerSet) and not rows.is_decoded
        assert rows == before
        added = view.insert_many("A", inserts)
        # a fresh fixpoint over the same inserts is the reference
        grown = base.copy()
        grown.bulk("A", inserts)
        after = SemiNaiveEngine().evaluate(system, grown)
        assert isinstance(added, AnswerSet)
        assert view.rows == after
        assert added == after.decoded() - before.decoded()
        # membership agrees row-by-row, whatever the closure contains
        for row in [("c9", "c0"), ("c0", "c3"), ("c0", "c0")]:
            assert (row in view) == (row in after)


# -- session sweep: every query path is a lazy AnswerSet ----------------


def _tc_session():
    session = DeductiveDatabase()
    session.load("P(x, y) :- A(x, z), P(z, y).\n"
                 "P(x, y) :- A(x, y).\n"
                 "Q(x) :- A(x, y).\n")
    session.add_facts("A", [(f"n{i}", f"n{i + 1}") for i in range(5)])
    return session


#: the transitive closure of the n0 → n5 chain
CLOSURE = frozenset((f"n{i}", f"n{j}") for i in range(5)
                    for j in range(i + 1, 6))


class TestSessionSweep:
    BATTERY = [
        ("P(X, Y)", "compiled", CLOSURE),
        ("P(n0, Y)", "compiled", {r for r in CLOSURE if r[0] == "n0"}),
        ("P(X, Y)", "semi-naive", CLOSURE),
        ("P(n0, Y)", "top-down", {r for r in CLOSURE if r[0] == "n0"}),
        ("P(X, Y)", "naive", CLOSURE),
        ("A(n0, Y)", "compiled", {("n0", "n1")}),               # edb
        ("Q(X)", "compiled", {(f"n{i}",) for i in range(5)}),  # view
        ("P(never_seen, Y)", "compiled", set()),       # unseen constant
    ]

    def test_every_answer_is_an_answer_set(self):
        session = _tc_session()
        for query, engine, expected in self.BATTERY:
            stats = EvaluationStats()
            answers = session.query(query, stats, engine=engine)
            assert isinstance(answers, AnswerSet), query
            assert answers == expected and expected == answers, query
            assert stats.answers == len(expected), query
    def test_cached_answers_stay_lazy_until_read(self):
        session = _tc_session()
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
        session = _tc_session()
        answers = session.query("A(n0, Y)")
        assert isinstance(answers, AnswerSet)
        assert not answers.is_decoded
        assert ("n0", "n1") in answers and not answers.is_decoded
        assert answers == {("n0", "n1")}
