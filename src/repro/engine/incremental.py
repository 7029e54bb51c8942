"""Insert-only incremental maintenance of a recursion's fixpoint.

A materialised recursive view should not be recomputed from scratch
when one base fact arrives.  For insertions into Datalog the delta
discipline is classical: every rule is differentiated per body-atom
occurrence of the inserted predicate — that occurrence is *forced* to
the new rows while the other atoms range over the current state — and
the resulting new head tuples are propagated through the recursive
rule semi-naively.

:class:`MaterializedRecursion` keeps the EDB and the materialised
relation together and exposes :meth:`insert`, returning exactly the
tuples the insertion added — property-tested to coincide with a from-
scratch evaluation after every step.

(Deletions would need DRed-style over-deletion and re-derivation; the
paper's setting has no deletions, so they are out of scope here.)
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.errors import EvaluationError
from ..datalog.program import RecursionSystem
from ..datalog.rules import Rule
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .seminaive import SemiNaiveEngine
from .setjoin import apply_rule
from .stats import open_stats
from .trace import Tracer


class MaterializedRecursion:
    """The fixpoint of one recursion system, maintained under inserts.

    The fixpoint is stored as relation P (the system's predicate) of a
    private database beside the EDB, so every differentiated rule reads
    it through the same join kernel as the base relations.
    """

    def __init__(self, system: RecursionSystem,
                 edb: Database | None = None) -> None:
        self._system = system
        self._db = edb.copy() if edb is not None else Database()
        # The fixpoint's storage-space rows replace whatever P rows the
        # base EDB stored (the copy shares the base's symbol table, so
        # the codes are directly valid here).
        predicate = system.predicate
        total = SemiNaiveEngine().evaluate(system, self._db).encoded
        for row in self._db.rows_encoded(predicate) - total:
            self._db.remove_encoded(predicate, row)
        self._db.bulk_encoded(predicate, total)
        self.stats = open_stats(None, "incremental")

    @property
    def rows(self) -> AnswerSet:
        """The current materialised relation, as a lazy columnar
        :class:`~repro.ra.answers.AnswerSet` — the snapshot decodes
        only if the caller iterates it."""
        return AnswerSet(self._db.rows_encoded(self._system.predicate),
                         self._db.symbols)

    @property
    def database(self) -> Database:
        """The underlying database: the EDB plus P."""
        return self._db

    # -- insertion ------------------------------------------------------

    def insert(self, predicate: str, row: tuple,
               trace: Tracer | None = None) -> AnswerSet:
        """Add one base fact; returns the derived tuples it added."""
        return self.insert_many(predicate, [row], trace)

    def insert_many(self, predicate: str, rows: Iterable[tuple],
                    trace: Tracer | None = None) -> AnswerSet:
        """Add base facts; returns every newly derived tuple.

        P itself is derived, never inserted: a P row raises
        :class:`~repro.datalog.errors.EvaluationError`.

        *trace* records the insertion's differentiation seed round and
        each semi-naive propagation round (``trace=None`` is free).

        A :class:`~repro.engine.deadline.Deadline` installed on
        ``self.stats.deadline`` is enforced at the same round
        boundaries as every other engine: the wall-clock budget (or a
        cancel flag) raises after the seed round or any propagation
        round, and the row budget stops propagation with
        ``stats.truncated`` set.  Either abort leaves the
        materialisation *partial*: the inserted base facts are in the
        database but their consequences are not all derived, so the
        maintained view is only sound, not complete, until the caller
        re-seeds it (budgeted maintenance is opt-in for exactly the
        callers that accept that trade).
        """
        if predicate == self._system.predicate:
            raise EvaluationError(
                f"{predicate!r} is the materialised relation: insert "
                f"base facts and the view derives its rows")
        stats = self.stats
        stats.truncated = False
        if trace is not None:
            trace.begin("incremental",
                        predicate=self._system.predicate)
        fresh = []
        for r in rows:
            encoded = self._db.encode_row(tuple(r))
            if self._db.add_encoded(predicate, encoded):
                fresh.append(encoded)
        if not fresh:
            if trace is not None:
                trace.finish(0, stats)
            return AnswerSet(frozenset(), self._db.symbols)

        if trace is not None:
            trace.begin_round("seed", len(fresh), stats)
        seeds: set[tuple] = set()
        for rule in (self._system.recursive.rule, *self._system.exits):
            seeds |= self._differentiated(rule, predicate, fresh)

        delta = self._absorb(seeds)
        added = set(delta)
        if stats.close_round(len(delta), len(added), trace,
                             inserted=len(fresh)):
            delta = set()  # round boundary: stop propagation
        # propagate through the recursive rule semi-naively
        recursive = self._system.recursive
        body_rest = list(recursive.nonrecursive_atoms)
        recursive_vars = recursive.recursive_atom.args
        head_args = recursive.head.args
        while delta:
            if trace is not None:
                trace.begin_round("delta", len(delta), stats)
            delta = self._absorb(apply_rule(
                self._db, body_rest, recursive_vars, head_args, delta,
                stats))
            added |= delta
            if stats.close_round(len(delta), len(added), trace):
                break
        if trace is not None:
            trace.finish(len(added), stats)
        return AnswerSet(frozenset(added), self._db.symbols)

    def _differentiated(self, rule: Rule, predicate: str,
                        fresh: list[tuple]) -> set[tuple]:
        """Head tuples derivable with one body occurrence of
        *predicate* forced to the freshly inserted rows, the other
        atoms (P included) ranging over the current database."""
        out: set[tuple] = set()
        for index, body_atom in enumerate(rule.body):
            if body_atom.predicate == predicate:
                rest = rule.body[:index] + rule.body[index + 1:]
                out |= apply_rule(self._db, rest, body_atom.args,
                                  rule.head.args, fresh, self.stats)
        return out

    def _absorb(self, rows: set[tuple]) -> set[tuple]:
        """Store *rows* in P; the ones it did not hold yet."""
        add, predicate = self._db.add_encoded, self._system.predicate
        return {row for row in rows if add(predicate, row)}

    def __len__(self) -> int:
        return self._db.count(self._system.predicate)

    def __contains__(self, row: tuple) -> bool:
        return (self._system.predicate, tuple(row)) in self._db

    def __repr__(self) -> str:
        return (f"MaterializedRecursion({self._system.predicate}: "
                f"{len(self)} tuples over "
                f"{self._db.total_facts() - len(self)} facts)")
