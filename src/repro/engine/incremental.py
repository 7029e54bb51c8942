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

from typing import Iterable, Iterator

from ..datalog.program import RecursionSystem
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .conjunctive import solve_project
from .seminaive import SemiNaiveEngine
from .setjoin import apply_rule
from .stats import EvaluationStats
from .trace import Tracer


class _WithIDB:
    """A database view that also serves the materialised predicate.

    Both the base relations and the materialised rows live in the
    base's storage space, so the solver's patterns apply unchanged.
    """

    def __init__(self, base: Database, predicate: str,
                 rows: set[tuple]) -> None:
        self._base = base
        self._predicate = predicate
        self._rows = rows

    def encode_const(self, value):
        return self._base.encode_const(value)

    def match_encoded(self, name: str,
                      pattern: tuple) -> Iterator[tuple]:
        if name != self._predicate:
            yield from self._base.match_encoded(name, pattern)
            return
        for row in self._rows:
            if all(v is None or row[i] == v
                   for i, v in enumerate(pattern)):
                yield row

    def count(self, name: str) -> int:
        if name != self._predicate:
            return self._base.count(name)
        return len(self._rows)


class MaterializedRecursion:
    """The fixpoint of one recursion system, maintained under inserts."""

    def __init__(self, system: RecursionSystem,
                 edb: Database | None = None) -> None:
        self._system = system
        self._db = edb.copy() if edb is not None else Database()
        # The materialised set lives in storage space (the fixpoint's
        # copy shares this database's symbol table, so its codes are
        # directly valid here).
        self._total: set[tuple] = set(
            SemiNaiveEngine().evaluate(system, self._db, decode=False))
        self.stats = EvaluationStats(engine="incremental")

    @property
    def rows(self) -> AnswerSet:
        """The current materialised relation, as a lazy columnar
        :class:`~repro.ra.answers.AnswerSet` — the snapshot decodes
        only if the caller iterates it."""
        return AnswerSet(frozenset(self._total), self._db.symbols)

    @property
    def database(self) -> Database:
        """The underlying (maintained) EDB."""
        return self._db

    # -- insertion ------------------------------------------------------

    def insert(self, predicate: str, row: tuple,
               trace: Tracer | None = None) -> AnswerSet:
        """Add one base fact; returns the derived tuples it added."""
        return self.insert_many(predicate, [row], trace)

    def insert_many(self, predicate: str, rows: Iterable[tuple],
                    trace: Tracer | None = None) -> AnswerSet:
        """Add base facts; returns every newly derived tuple.

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
        deadline = self.stats.deadline
        self.stats.truncated = False
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
                trace.finish(0, self.stats)
            return AnswerSet(frozenset(), self._db.symbols)
        view = _WithIDB(self._db, self._system.predicate, self._total)

        if trace is not None:
            trace.begin_round("seed", len(fresh), self.stats)
        seeds: set[tuple] = set()
        for rule in (self._system.recursive.rule, *self._system.exits):
            seeds |= self._differentiated(rule, predicate, fresh, view)

        delta = seeds - self._total
        added = set(delta)
        self._total |= delta
        self.stats.record_round(len(delta))
        if trace is not None:
            trace.end_round(len(delta), self.stats,
                            inserted=len(fresh))
        if deadline is not None:
            deadline.check_time()
            if deadline.out_of_rows(len(added)):
                self.stats.truncated = True
                delta = set()  # round boundary: stop propagation
        # propagate through the recursive rule semi-naively
        recursive = self._system.recursive
        body_rest = list(recursive.nonrecursive_atoms)
        recursive_vars = recursive.recursive_atom.args
        head_args = recursive.head.args
        while delta:
            if trace is not None:
                trace.begin_round("delta", len(delta), self.stats)
            new = apply_rule(self._db, body_rest, recursive_vars,
                             head_args, delta, self.stats)
            delta = new - self._total
            added |= delta
            self._total |= delta
            self.stats.record_round(len(delta))
            if trace is not None:
                trace.end_round(len(delta), self.stats)
            if deadline is not None:
                deadline.check_time()
                if deadline.out_of_rows(len(added)):
                    self.stats.truncated = True
                    break
        if trace is not None:
            trace.finish(len(added), self.stats)
        return AnswerSet(frozenset(added), self._db.symbols)

    def _differentiated(self, rule: Rule, predicate: str,
                        fresh: list[tuple], view: _WithIDB
                        ) -> set[tuple]:
        """Head tuples derivable with one body occurrence of
        *predicate* forced to the freshly inserted rows."""
        out: set[tuple] = set()
        for index, body_atom in enumerate(rule.body):
            if body_atom.predicate != predicate:
                continue
            rest = rule.body[:index] + rule.body[index + 1:]
            for row in fresh:
                binding: dict[Variable, object] = {}
                consistent = True
                for term, value in zip(body_atom.args, row):
                    if isinstance(term, Variable):
                        if binding.setdefault(term, value) != value:
                            consistent = False
                            break
                    elif self._db.encode_const(term.value) != value:
                        consistent = False
                        break
                if not consistent:
                    continue
                out |= solve_project(view, rest, rule.head.args,
                                     binding, stats=self.stats)
        return out

    def __len__(self) -> int:
        return len(self._total)

    def __contains__(self, row: tuple) -> bool:
        lookup = self._db.symbols.lookup
        codes = tuple(lookup(value) for value in row)
        return None not in codes and codes in self._total

    def __repr__(self) -> str:
        return (f"MaterializedRecursion({self._system.predicate}: "
                f"{len(self._total)} tuples over "
                f"{self._db.total_facts()} facts)")
