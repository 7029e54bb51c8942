"""Snapshot-isolation laws of the epoch manager.

The service's concurrency claim is all-or-nothing visibility: a
reader holding an epoch sees exactly the database state that epoch
published — a write batch applied concurrently is either entirely
invisible (the reader pinned the pre-batch epoch) or entirely visible
(the post-batch one), never a mix of the two.

Two layers pin this down:

* **deterministic** — hypothesis generates an EDB, a batch of adds
  and removals over it, for catalogue representatives of classes
  A1 … F × every engine; the pre-batch epoch must keep answering the
  pre-batch fixpoint bit-exactly after the batch lands, and the new
  epoch must answer a freshly-built post-batch session bit-exactly;
* **threaded** — reader threads race a writer publishing a chain of
  epochs; every observed answer set must equal the ground truth *of
  the epoch the reader pinned* (a torn read — part old edges, part
  new — matches no epoch's truth and fails).
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query import Query
from repro.service import EpochManager
from repro.session import DeductiveDatabase
from repro.workloads import CATALOGUE
from repro.workloads.edb import _predicate_arities

#: one catalogue representative per paper class A1 … F
CLASS_ENTRIES = {
    "A1": "s2a", "A3": "s4", "A5": "s1a", "B": "s8", "C": "s9",
    "D": "s10", "E": "s11", "F": "s12",
}

ENGINES = ["compiled", "semi-naive", "naive", "top-down"]

#: a small shared universe so joins connect with useful probability
NAMES = ["a", "b", "c", "d"]


def _session_for(entry_name: str, facts: dict) -> DeductiveDatabase:
    system = CATALOGUE[entry_name].system()
    session = DeductiveDatabase()
    session.add_rule(system.recursive.rule)
    for exit_rule in system.exits:
        session.add_rule(exit_rule)
    # declare every EDB predicate so empty relations are empty, not
    # unknown
    for predicate, arity in _predicate_arities(system).items():
        session._edb.declare(predicate, arity)
        if facts.get(predicate):
            session.add_facts(predicate, facts[predicate])
    return session


def _free_query(entry_name: str) -> Query:
    system = CATALOGUE[entry_name].system()
    return Query.all_free(system.predicate, system.dimension)


def _facts_strategy(entry_name: str):
    node = st.sampled_from(NAMES)
    arities = _predicate_arities(CATALOGUE[entry_name].system())
    return st.fixed_dictionaries({
        predicate: st.lists(st.tuples(*[node] * arity),
                            unique=True, max_size=6)
        for predicate, arity in sorted(arities.items())})


@pytest.mark.parametrize("entry_name", sorted(CLASS_ENTRIES.values()))
@pytest.mark.parametrize("engine", ENGINES)
class TestSnapshotIsolationDeterministic:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_epochs_see_all_or_nothing(self, entry_name, engine,
                                       data):
        initial = data.draw(_facts_strategy(entry_name),
                            label="initial")
        extra = data.draw(_facts_strategy(entry_name), label="added")
        removals = {
            predicate: (data.draw(
                st.lists(st.sampled_from(rows), unique=True,
                         max_size=len(rows)),
                label=f"removed[{predicate}]") if rows else [])
            for predicate, rows in initial.items()}
        post = {
            predicate: (sorted((set(rows) - set(removals[predicate]))
                               | set(extra[predicate])))
            for predicate, rows in initial.items()}
        query = _free_query(entry_name)

        pre_truth = frozenset(
            _session_for(entry_name, initial).query(query,
                                                    engine=engine))
        post_truth = frozenset(
            _session_for(entry_name, post).query(query,
                                                 engine=engine))

        manager = EpochManager(_session_for(entry_name, initial))
        pinned = manager.current
        assert frozenset(pinned.session.query(
            query, engine=engine)) == pre_truth

        def batch(session: DeductiveDatabase) -> None:
            for predicate, rows in removals.items():
                if rows:
                    session.remove_facts(predicate, rows)
            for predicate, rows in extra.items():
                if rows:
                    session.add_facts(predicate, rows)

        manager.apply(batch)

        # the pinned pre-batch epoch is untouched by the batch …
        assert frozenset(pinned.session.query(
            query, engine=engine)) == pre_truth
        # … and the published epoch answers the post-batch fixpoint
        assert manager.current.number == pinned.number + 1
        assert frozenset(manager.current.session.query(
            query, engine=engine)) == post_truth


class TestSnapshotIsolationThreaded:
    EDGES = [(f"n{i}", f"n{i + 1}") for i in range(8)]
    BASE = 3  # edges present at epoch 0

    @classmethod
    def _closure(cls, edges) -> frozenset:
        reach = set(edges)
        while True:
            grown = {(x, w) for (x, y) in reach
                     for (z, w) in reach if y == z} - reach
            if not grown:
                return frozenset(reach)
            reach |= grown

    @classmethod
    def _tc_session(cls, edges) -> DeductiveDatabase:
        session = DeductiveDatabase()
        session.load("P(x, y) :- A(x, z), P(z, y).\n"
                     "P(x, y) :- A(x, y).")
        session.add_facts("A", edges)
        return session

    @pytest.mark.parametrize("engine", ENGINES)
    def test_racing_readers_never_see_a_torn_epoch(self, engine):
        truths = {
            k: self._closure(self.EDGES[:self.BASE + k])
            for k in range(len(self.EDGES) - self.BASE + 1)}
        manager = EpochManager(
            self._tc_session(self.EDGES[:self.BASE]))
        done = threading.Event()
        failures: list[str] = []

        def read() -> None:
            while not done.is_set():
                epoch = manager.current
                observed = frozenset(epoch.session.query(
                    "P(X, Y)", engine=engine))
                if observed != truths[epoch.number]:
                    failures.append(
                        f"epoch {epoch.number}: saw {len(observed)} "
                        f"answers, truth has "
                        f"{len(truths[epoch.number])}")
                    return

        readers = [threading.Thread(target=read) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for edge in self.EDGES[self.BASE:]:
                manager.apply(
                    lambda s, edge=edge: s.add_fact("A", *edge))
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=10)
        assert not failures, failures
        assert manager.current.number == len(self.EDGES) - self.BASE
