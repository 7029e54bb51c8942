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
the vectorised kernel when ``backend`` allows it — flat int-vector
frontiers over CSR adjacency, answers/stats/traces bit-identical to
the tuple-set rounds.
"""

from __future__ import annotations

from ..datalog.program import RecursionSystem
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .query import Query
from .setjoin import apply_rule
from .stats import EvaluationStats
from .trace import Tracer
from .vector import ColumnarTotal, run_delta_loop, validate_backend


class SemiNaiveEngine:
    """Delta-driven fixpoint for one linear recursion system.

    Parameters
    ----------
    backend:
        Delta-loop backend selection: ``"auto"`` hands certified plan
        shapes to the vectorised kernel (:mod:`repro.engine.vector`)
        when numpy imports and runs tuple-set rounds otherwise;
        ``"python"`` pins the tuple-set rounds.
    """

    name = "semi-naive"

    def __init__(self, backend: str = "auto") -> None:
        self.backend = validate_backend(backend)

    def evaluate(self, system: RecursionSystem, edb: Database,
                 query: Query | None = None,
                 stats: EvaluationStats | None = None,
                 max_rounds: int | None = None,
                 trace: Tracer | None = None,
                 decode: bool = True) -> AnswerSet | frozenset[tuple]:
        """All tuples of the recursive predicate, filtered by *query*.

        *max_rounds* caps the recursion depth (used by rank probes);
        None runs to the natural fixpoint.  *trace* (when given)
        collects one :class:`~repro.engine.trace.RoundSpan` per round;
        ``trace=None`` adds no work to the loop.

        The whole fixpoint runs in storage space; the answers come
        back as a lazy columnar :class:`~repro.ra.answers.AnswerSet`
        (*decode* = True, the default) that materialises values only
        when first iterated — behaviourally a ``frozenset`` of value
        rows, without the eager decode tax on enumerations nobody
        reads.  ``decode=False`` hands back plain storage-space rows —
        for callers that feed them straight back into the same
        database (materialisation, the incremental maintenance
        seed).

        >>> from ..datalog.parser import parse_system
        >>> s = parse_system("P(x, y) :- A(x, z), P(z, y).")
        >>> db = Database.from_dict({
        ...     "A": [("a", "b"), ("b", "c")],
        ...     "P__exit": [("c", "c")]})
        >>> sorted(SemiNaiveEngine().evaluate(s, db))
        [('a', 'c'), ('b', 'c'), ('c', 'c')]
        """
        if stats is None:
            stats = EvaluationStats(engine=self.name)
        else:
            stats.engine = self.name
        stats.truncated = False
        stats.backend = "python"
        deadline = stats.deadline
        # The fixpoint never writes to the database (derived tuples
        # live in plain sets), so evaluate directly on *edb* — like the
        # compiled and top-down engines — and let the cached join
        # tables warm up across evaluations instead of dying with a
        # private copy.
        database = edb
        rule = system.recursive

        if trace is not None:
            trace.begin(self.name, predicate=system.predicate,
                        query=query)
            trace.begin_round("exit", 0, stats)
        # Round 0: exit rules over the EDB.
        total: set[tuple] = set()
        for position, exit_rule in enumerate(system.exits):
            if trace is not None:
                trace.begin_rule(f"exit[{position}]: {exit_rule}", stats)
            total |= apply_rule(database, exit_rule.body, (),
                                exit_rule.head.args, [()], stats)
            if trace is not None:
                trace.end_rule(stats)
        delta = set(total)
        stats.record_round(len(delta))
        if trace is not None:
            trace.end_round(len(delta), stats)
        if deadline is not None:
            deadline.check_time()
            if deadline.out_of_rows(len(total)):
                stats.truncated = True
                delta = set()  # round boundary: stop cleanly

        total = run_delta_loop(database, rule.nonrecursive_atoms,
                               rule.recursive_atom.args, rule.head.args,
                               total, delta, stats, trace, max_rounds,
                               backend=self.backend)

        if isinstance(total, ColumnarTotal):
            # the numpy kernel's product stays columnar through the
            # boundary: constants filter by vector mask, and the rows
            # materialise lazily inside the AnswerSet (or eagerly for
            # decode=False callers that feed them back to a database)
            answers = total.filter(
                None if query is None else query.encoded(database))
        elif query is None:
            answers = frozenset(total)
        else:
            # Filter in storage space: the query's constants encode to
            # the same codes the stored rows carry.
            answers = query.encoded(database).filter(total)
        stats.answers = len(answers)
        if trace is not None:
            trace.annotate(backend=stats.backend)
            trace.finish(len(answers), stats)
        if isinstance(answers, ColumnarTotal):
            answers = (
                AnswerSet.from_columns(answers.columns(),
                                       database.symbols)
                if decode else answers.rows())
        elif decode:
            answers = AnswerSet(answers, database.symbols)
        return answers

    def measured_rank(self, system: RecursionSystem,
                      edb: Database) -> int:
        """The actual rank of *system* on *edb*: the largest recursion
        depth that contributed a new tuple."""
        stats = EvaluationStats()
        self.evaluate(system, edb, stats=stats)
        return stats.measured_rank
