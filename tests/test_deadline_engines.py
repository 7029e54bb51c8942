"""Deadline enforcement, parametrized over every engine.

The deadline contract — wall-clock expiry raises
:class:`~repro.engine.deadline.QueryTimeout`, a row budget stops the
fixpoint at the next round boundary with ``stats.truncated`` set, and
a cancel flag raises :class:`~repro.engine.deadline.QueryCancelled` —
must hold identically for all five evaluation paths: the four session
engines and incremental maintenance
(:class:`~repro.engine.incremental.MaterializedRecursion`).
"""

import threading

import pytest

from repro.core.compile import Strategy, compile_query
from repro.datalog.parser import parse_system
from repro.engine import CompiledEngine, Query, SemiNaiveEngine
from repro.engine.deadline import Deadline, QueryCancelled, QueryTimeout
from repro.engine.incremental import MaterializedRecursion
from repro.engine.stats import EvaluationStats
from repro.ra import Database
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE, random_edb

PROGRAM = """
    P(x, y) :- A(x, z), P(z, y).
    P(x, y) :- A(x, y).
    A(a, b). A(b, c). A(c, d). A(d, e).
"""

CLOSURE = {(a, b)
           for i, a in enumerate("abcde")
           for b in "abcde"[i + 1:]}

#: every session-reachable evaluation path
ENGINES = ["compiled", "semi-naive", "naive", "top-down"]


def make_session():
    session = DeductiveDatabase()
    session.load(PROGRAM)
    return session


def budgeted_stats(**kwargs) -> EvaluationStats:
    stats = EvaluationStats()
    stats.deadline = Deadline(**kwargs)
    return stats


class TestSessionEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_expired_wall_clock_raises(self, engine):
        stats = budgeted_stats(timeout_s=0.0)
        with pytest.raises(QueryTimeout):
            make_session().query("P(X, Y)", stats=stats,
                                 engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_row_budget_truncates_soundly(self, engine):
        stats = budgeted_stats(max_rows=1)
        answers = make_session().query("P(X, Y)", stats=stats,
                                       engine=engine)
        assert stats.truncated
        # a round boundary may overshoot the cap by one delta, but
        # the partial set must be sound: a strict subset of the
        # closure, never an invented tuple
        assert 1 <= len(answers) < len(CLOSURE)
        assert set(answers) < CLOSURE

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pre_set_cancel_flag_aborts(self, engine):
        cancel = threading.Event()
        cancel.set()
        stats = budgeted_stats(cancel=cancel)
        with pytest.raises(QueryCancelled):
            make_session().query("P(X, Y)", stats=stats,
                                 engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unset_cancel_flag_is_free(self, engine):
        stats = budgeted_stats(cancel=threading.Event())
        answers = make_session().query("P(X, Y)", stats=stats,
                                       engine=engine)
        assert set(answers) == CLOSURE
        assert not stats.truncated


class TestCompiledMagicPass:
    """The ITERATIVE strategy's magic-binding pass is a compiled step
    too: each of its set-at-a-time rounds checks the deadline."""

    def test_pre_set_cancel_flag_aborts_before_any_probe(self):
        system = CATALOGUE["s12"].system()
        assert compile_query(system, "dvv").strategy is \
            Strategy.ITERATIVE
        db = random_edb(system, nodes=6, tuples_per_relation=12, seed=1)
        constant = sorted(db.active_domain())[0]
        cancel = threading.Event()
        cancel.set()
        stats = budgeted_stats(cancel=cancel)
        with pytest.raises(QueryCancelled):
            CompiledEngine().evaluate(
                system, db, Query("P", (constant, None, None)), stats)
        assert stats.probes == 0


class TestIncremental:
    """The maintenance engine honours ``stats.deadline`` too."""

    SYSTEM = ("P(x, y) :- A(x, z), P(z, y).\n"
              "P(x, y) :- A(x, y).")
    CHAIN = [(f"n{i}", f"n{i + 1}") for i in range(8)]

    def make_view(self) -> MaterializedRecursion:
        system = parse_system(self.SYSTEM)
        return MaterializedRecursion(system, Database())

    def test_expired_wall_clock_raises(self):
        view = self.make_view()
        view.stats.deadline = Deadline(timeout_s=0.0)
        with pytest.raises(QueryTimeout):
            view.insert_many("A", self.CHAIN)

    def test_row_budget_truncates_soundly(self):
        view = self.make_view()
        view.stats.deadline = Deadline(max_rows=1)
        added = view.insert_many("A", self.CHAIN)
        assert view.stats.truncated
        # the partial materialisation is sound: everything derived is
        # in the true closure, but propagation stopped early
        system = parse_system(self.SYSTEM)
        scratch = SemiNaiveEngine().evaluate(system, view.database)
        assert set(added) < set(scratch)
        assert set(view.rows) < set(scratch)

    def test_pre_set_cancel_flag_aborts(self):
        view = self.make_view()
        cancel = threading.Event()
        cancel.set()
        view.stats.deadline = Deadline(cancel=cancel)
        with pytest.raises(QueryCancelled):
            view.insert_many("A", self.CHAIN)

    def test_unbudgeted_maintenance_completes(self):
        view = self.make_view()
        view.insert_many("A", self.CHAIN)
        system = parse_system(self.SYSTEM)
        scratch = SemiNaiveEngine().evaluate(system, view.database)
        assert set(view.rows) == set(scratch)
        assert not view.stats.truncated

    def test_budgeted_view_recovers_on_reseed(self):
        view = self.make_view()
        view.stats.deadline = Deadline(max_rows=1)
        view.insert_many("A", self.CHAIN)
        assert view.stats.truncated
        # rebuilding from the maintained EDB restores completeness
        rebuilt = MaterializedRecursion(
            parse_system(self.SYSTEM), view.database)
        system = parse_system(self.SYSTEM)
        scratch = SemiNaiveEngine().evaluate(system, view.database)
        assert set(rebuilt.rows) == set(scratch)
