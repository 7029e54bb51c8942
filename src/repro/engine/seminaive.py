"""Semi-naive bottom-up evaluation with delta propagation.

For linear single recursion the delta discipline is simple: round 0
evaluates the exit rules; each later round re-joins only the previous
round's new tuples through the recursive rule's body.  Round r derives
exactly the depth-r tuples, so the per-round delta sizes expose the
*measured rank* of a formula on a concrete database — the quantity the
paper's boundedness results (Ioannidis's theorem, Theorem 10) bound.

Every rule body is compiled once into a
:class:`~repro.engine.plan.JoinPlan` and whole relations are pushed
through cached hash joins: the exit rules from the empty binding, the
recursive rule from each round's delta.  The delta rounds run in
:func:`~repro.engine.vector.run_delta_loop`, which hands the hot
linear-recursion shape (single fused step, identity entry layout) to
the vectorised kernel — flat int-vector frontiers over CSR
adjacency, answers/stats/traces bit-identical to the tuple-set
rounds.

:func:`derive` runs the same two steps to build a *derived relation*
that a query reads but does not bind: a view or recursion the session
evaluates below a queried predicate, and class C's auxiliary recursion
R.  It caches the rows on the database, once per version of what they
read (:meth:`Database.derived`).
"""

from __future__ import annotations

from ..datalog.program import RecursionSystem
from ..datalog.rules import RecursiveRule, Rule
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .query import Query
from .stats import EvaluationStats, open_stats
from .trace import Tracer
from .vector import (ColumnarTotal, answer_boundary, exit_round,
                     run_delta_loop, validate_backend)


class SemiNaiveEngine:
    """Delta-driven fixpoint for one linear recursion system.

    Parameters
    ----------
    backend:
        Delta-loop backend selection: ``"auto"`` hands certified plan
        shapes to the vectorised kernel (:mod:`repro.engine.vector`)
        when numpy imports and runs tuple-set rounds otherwise;
        ``"python"`` pins the tuple-set rounds, the reference the
        kernel's parity tests compare against.
    """

    name = "semi-naive"

    def __init__(self, backend: str = "auto") -> None:
        self.backend = validate_backend(backend)

    def evaluate(self, system: RecursionSystem, edb: Database,
                 query: Query | None = None,
                 stats: EvaluationStats | None = None,
                 trace: Tracer | None = None) -> AnswerSet:
        """All tuples of the recursive predicate, filtered by *query*.

        *trace* (when given) collects one
        :class:`~repro.engine.trace.RoundSpan` per round;
        ``trace=None`` adds no work to the loop.

        The whole fixpoint runs in storage space; the answers come
        back as a lazy columnar :class:`~repro.ra.answers.AnswerSet`
        that materialises values only when first iterated —
        behaviourally a ``frozenset`` of value rows, without the eager
        decode tax on enumerations nobody reads.  Callers that feed
        the rows straight back into the same database read its
        storage-space ``encoded`` side instead.

        >>> from ..datalog.parser import parse_system
        >>> s = parse_system("P(x, y) :- A(x, z), P(z, y).")
        >>> db = Database.from_dict({
        ...     "A": [("a", "b"), ("b", "c")],
        ...     "P__exit": [("c", "c")]})
        >>> sorted(SemiNaiveEngine().evaluate(s, db))
        [('a', 'c'), ('b', 'c'), ('c', 'c')]
        """
        stats = open_stats(stats, self.name, "python")
        # The fixpoint never writes to the database (derived tuples
        # live in plain sets), so evaluate directly on *edb* — like the
        # compiled and top-down engines — and let the cached join
        # tables warm up across evaluations instead of dying with a
        # private copy.
        if trace is not None:
            trace.begin(self.name, predicate=system.predicate,
                        query=query)
        total, delta = exit_round(edb, system.exits, [((), [()])], stats,
                                  trace)
        rule = system.recursive
        total = run_delta_loop(edb, rule.nonrecursive_atoms,
                               rule.recursive_atom.args, rule.head.args,
                               total, delta, stats, trace,
                               backend=self.backend)
        return answer_boundary(
            total, None if query is None else query.encoded(edb), edb,
            stats, trace)

    def measured_rank(self, system: RecursionSystem,
                      edb: Database) -> int:
        """The actual rank of *system* on *edb*: the largest recursion
        depth that contributed a new tuple."""
        stats = EvaluationStats()
        self.evaluate(system, edb, stats=stats)
        return stats.measured_rank


def derive(database: Database, name: str, exits: tuple[Rule, ...],
           recursive: RecursiveRule | None, stats: EvaluationStats,
           key=()) -> tuple[tuple, bool]:
    """The rows of the derived relation *name* and whether this call
    built them.

    The rows are *exits* applied from the empty binding (a view's
    rules), then, for a recursion, *recursive*'s delta loop to
    fixpoint.  They are cached on *database* under *name*, keyed by
    *key* and by the version of every relation the rules read
    (:meth:`Database.derived`), so a later query reads them as it
    reads a stored relation.  A build runs under the query's clock and
    cancel flag, checked once per round, but not its row budget, which
    bounds answers; it counts in the query's ``hash_builds`` alone (the
    entry and the join tables it builds), so a query's other counters
    do not depend on whether an earlier query built it.
    """
    inputs = {atom.predicate for rule in exits for atom in rule.body}
    if recursive is not None:
        inputs.update(atom.predicate
                      for atom in recursive.nonrecursive_atoms)

    def build():
        deadline = stats.deadline
        private = EvaluationStats(
            deadline=None if deadline is None else deadline.clock())
        total, delta = exit_round(database, exits, [((), [()])], private,
                                  None)
        if recursive is None:
            return total
        total = run_delta_loop(database, recursive.nonrecursive_atoms,
                               recursive.recursive_atom.args,
                               recursive.head.args, total, delta, private,
                               None)
        return total.rows() if isinstance(total, ColumnarTotal) else total

    builds_before = database.hash_builds
    rows, built = database.derived(name, sorted(inputs), build, key)
    stats.hash_builds += database.hash_builds - builds_before
    return rows, built
