"""Tabled top-down evaluation (QSQR-style), the fourth engine.

The paper's compilation lineage is top-down: [Hens 84] compiles
queries by expanding the recursion symbolically and pushing the query
constants through.  This engine is the *interpreted* counterpart:
goal-directed SLD resolution with memoisation ("tabling"), sound and
terminating on Datalog.

Mechanics: a *subgoal* is a match pattern over the recursive
predicate.  Rule bodies are evaluated by the shared selection-first
conjunctive solver against a view that serves EDB relations directly
and, for the recursive predicate, serves the current table content
while *registering* every pattern it is probed with as a new subgoal.
Registered subgoals are re-solved until no table grows — the QSQR
fixpoint.  Like the compiled engine, only goal-relevant facts are
derived; unlike it, no classification is needed (and none of its
per-class shortcuts are available).
"""

from __future__ import annotations

from typing import Iterator

from ..datalog.program import RecursionSystem
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .conjunctive import solve_project
from .query import Query
from .stats import EvaluationStats, open_stats
from .trace import Tracer
from .vector import answer_boundary


class _GoalView:
    """A database view that tables probes of the recursive predicate.

    Quacks like :class:`Database` for the conjunctive solver
    (match_encoded / count / the encoding surface), delegating every
    relation except *predicate* to the base.  Subgoal patterns, table
    rows and solver bindings all live in the base's storage space.
    """

    def __init__(self, base: Database, predicate: str) -> None:
        self._base = base
        self._predicate = predicate
        #: subgoal pattern -> answers (full tuples) found so far
        self.tables: dict[tuple, set[tuple]] = {}
        #: rows across every table, counted as they are added (the
        #: solver ranks atoms by ``count`` at every step)
        self.rows = 0
        #: patterns discovered during the current pass
        self.new_subgoals: list[tuple] = []
        #: the subgoal patterns probed during the current solving pass
        self.probed: set[tuple] = set()

    def _generalise(self, pattern: tuple) -> tuple:
        """The tabled subgoal for a probe: its bound positions."""
        return tuple(pattern)

    def register(self, pattern: tuple) -> None:
        """Ensure *pattern* has a table (and queue it when new)."""
        if pattern not in self.tables:
            self.tables[pattern] = set()
            self.new_subgoals.append(pattern)

    def encode_const(self, value):
        return self._base.encode_const(value)

    def match_encoded(self, name: str,
                      pattern: tuple) -> Iterator[tuple]:
        if name != self._predicate:
            yield from self._base.match_encoded(name, pattern)
            return
        subgoal = self._generalise(pattern)
        self.register(subgoal)
        self.probed.add(subgoal)
        yield from list(self.tables[subgoal])

    def count(self, name: str) -> int:
        if name != self._predicate:
            return self._base.count(name)
        return self.rows


class TopDownEngine:
    """Goal-directed tabled resolution for one recursion system."""

    name = "top-down"

    def evaluate(self, system: RecursionSystem, edb: Database,
                 query: Query, stats: EvaluationStats | None = None,
                 trace: Tracer | None = None) -> AnswerSet:
        """Answers to *query* by memoised top-down resolution.

        >>> from ..datalog.parser import parse_system
        >>> s = parse_system("P(x, y) :- A(x, z), P(z, y).")
        >>> db = Database.from_dict({
        ...     "A": [("a", "b"), ("b", "c")],
        ...     "P__exit": [("c", "c")]})
        >>> sorted(TopDownEngine().evaluate(s, db, Query.parse("P(a, Y)")))
        [('a', 'c')]
        """
        stats = open_stats(stats, self.name)
        if trace is not None:
            trace.begin(self.name, predicate=system.predicate,
                        query=query)
        view = _GoalView(edb, system.predicate)
        # Subgoals are storage-space patterns: the root query's
        # constants are encoded once here; every tabled row is a code
        # tuple until the final decode.
        enc_query = query.encoded(edb)
        root = tuple(enc_query.pattern)
        view.register(root)
        rules = [system.recursive.rule, *system.exits]

        # Worklist QSQR: a subgoal is re-solved only when one of the
        # subgoals it probes has grown (or when it is new).  Pops go in
        # *decoded*-pattern order: every other per-round quantity is a
        # function of (table state, chosen subgoal) alone, so the round
        # sequence depends on the constants, never on the order in
        # which the symbol table happened to issue their codes.
        def sort_key(pattern: tuple) -> str:
            return repr(edb.decode_pattern(pattern))

        dependents: dict[tuple, set[tuple]] = {}
        queue: dict[tuple, str] = {root: sort_key(root)}
        view.new_subgoals.clear()
        while queue:
            subgoal = min(queue, key=queue.get)  # type: ignore[arg-type]
            del queue[subgoal]
            before = len(view.tables[subgoal])
            root_before = len(view.tables[root])
            if trace is not None:
                trace.begin_round("subgoal", before, stats)
            view.probed = set()
            self._solve_subgoal(system, view, rules, subgoal, stats)
            for probed in view.probed:
                dependents.setdefault(probed, set()).add(subgoal)
            for fresh in view.new_subgoals:
                if fresh not in queue:
                    queue[fresh] = sort_key(fresh)
            view.new_subgoals.clear()
            # only the solved subgoal's table grows in its pass
            grown = len(view.tables[subgoal]) - before
            if grown:
                for waiter in dependents.get(subgoal, ()):
                    if waiter not in queue:
                        queue[waiter] = sort_key(waiter)
            # Like ``delta_out``, the stats count *root-table* growth,
            # so the per-round sizes sum to the answer count and the
            # trace and the stats dump reconcile (asserted by
            # tests/test_trace_properties.py); the solved subgoal's own
            # growth rides along in the trace ``detail``, which names
            # the subgoal in value space, never in codes.
            detail = {} if trace is None else {
                "subgoal": str(Query(system.predicate,
                                     edb.decode_pattern(subgoal))),
                "table_growth": grown}
            # every table's rows are the row budget's measure
            if stats.close_round(len(view.tables[root]) - root_before,
                                 view.rows, trace, **detail):
                break

        return answer_boundary(view.tables[root], enc_query, edb, stats,
                               trace)

    def _solve_subgoal(self, system: RecursionSystem, view: _GoalView,
                       rules, subgoal: tuple,
                       stats: EvaluationStats) -> None:
        """One resolution pass: every rule against one subgoal."""
        for rule in rules:
            binding = {}
            consistent = True
            for term, value in zip(rule.head.args, subgoal):
                if value is None:
                    continue
                if binding.get(term, value) != value:
                    consistent = False
                    break
                binding[term] = value
            if not consistent:
                continue
            derived = solve_project(view, rule.body, rule.head.args,
                                    binding, stats=stats)
            table = view.tables[subgoal]
            for row in derived:
                if row not in table:
                    table.add(row)
                    view.rows += 1
                    stats.derived += 1
