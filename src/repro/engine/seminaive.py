"""Semi-naive bottom-up evaluation with delta propagation.

For linear single recursion the delta discipline is simple: round 0
evaluates the exit rules; each later round re-joins only the previous
round's new tuples through the recursive rule's body.  Round r derives
exactly the depth-r tuples, so the per-round delta sizes expose the
*measured rank* of a formula on a concrete database — the quantity the
paper's boundedness results (Ioannidis's theorem, Theorem 10) bound.

Two execution disciplines share the delta loop:

* **set-at-a-time** (the default): the rule body is compiled once into
  a :class:`~repro.engine.plan.JoinPlan` and the whole delta relation
  is pushed through cached hash joins per round;
* **tuple-at-a-time** (``set_at_a_time=False``): the original
  per-delta-tuple backtracking search, kept for ablations.

Both produce identical per-round deltas (property-tested), so every
rank/boundedness measurement is unaffected by the flag.

When the compiled plan certifies the hot linear-recursion shape
(single fused step, identity entry layout) and ``backend`` allows it,
the set-at-a-time delta loop is handed wholesale to the vectorised
kernel (:mod:`repro.engine.vector`) — flat int-vector frontiers over
CSR adjacency, answers/stats/traces bit-identical to this loop.
"""

from __future__ import annotations

from ..datalog.program import RecursionSystem
from ..datalog.terms import Variable
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .conjunctive import solve_project
from .query import Query
from .setjoin import apply_rule
from .stats import EvaluationStats
from .trace import Tracer
from .vector import ColumnarTotal
from .vector import eligible as _vector_eligible
from .vector import run_delta_loop, validate_backend


class SemiNaiveEngine:
    """Delta-driven fixpoint for one linear recursion system.

    Parameters
    ----------
    set_at_a_time:
        When True (default), execute rule bodies through the compiled
        set-at-a-time join kernel; when False, fall back to the
        tuple-at-a-time backtracking solver.
    backend:
        Delta-loop backend selection: ``"auto"`` hands certified plan
        shapes to the vectorised kernel (:mod:`repro.engine.vector`)
        when numpy imports and runs the tuple-set loop otherwise;
        ``"python"`` pins the tuple-set loop.
    """

    name = "semi-naive"

    def __init__(self, set_at_a_time: bool = True,
                 backend: str = "auto") -> None:
        self.set_at_a_time = set_at_a_time
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

        body_rest = list(rule.nonrecursive_atoms)
        recursive_vars = rule.recursive_atom.args
        head_args = rule.head.args

        if trace is not None:
            trace.begin(self.name, predicate=system.predicate,
                        query=query)
            trace.begin_round("exit", 0, stats)
        # Round 0: exit rules over the EDB.
        total: set[tuple] = set()
        for position, exit_rule in enumerate(system.exits):
            if trace is not None:
                trace.begin_rule(f"exit[{position}]: {exit_rule}", stats)
            if self.set_at_a_time:
                total |= apply_rule(database, exit_rule.body, (),
                                    exit_rule.head.args, [()], stats)
            else:
                total |= solve_project(database, exit_rule.body,
                                       exit_rule.head.args, stats=stats)
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

        if (self.set_at_a_time and self.backend != "python"
                and _vector_eligible(recursive_vars)):
            # the vector module owns the whole loop (including the
            # tuple-set continuation for uncertified plan shapes),
            # keeping every counter identical to the loop below
            total = run_delta_loop(database, body_rest, recursive_vars,
                                   head_args, total, delta, stats, trace,
                                   max_rounds)
        else:
            rounds = 0
            while delta:
                if max_rounds is not None and rounds >= max_rounds:
                    break
                rounds += 1
                if trace is not None:
                    trace.begin_round("delta", len(delta), stats)
                if self.set_at_a_time:
                    new = apply_rule(database, body_rest, recursive_vars,
                                     head_args, delta, stats)
                else:
                    new = self._tuple_at_a_time_round(
                        database, body_rest, recursive_vars, head_args,
                        delta, stats)
                delta = new - total
                total |= delta
                stats.record_round(len(delta))
                if trace is not None:
                    trace.end_round(len(delta), stats)
                if deadline is not None:
                    deadline.check_time()
                    if deadline.out_of_rows(len(total)):
                        stats.truncated = True
                        break

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

    @staticmethod
    def _tuple_at_a_time_round(database: Database, body_rest,
                               recursive_vars, head_args,
                               delta: set[tuple],
                               stats: EvaluationStats) -> set[tuple]:
        """One delta round via the per-tuple backtracking solver."""
        new: set[tuple] = set()
        for row in delta:
            binding: dict[Variable, object] = {}
            consistent = True
            for term, value in zip(recursive_vars, row):
                assert isinstance(term, Variable)
                if binding.get(term, value) != value:
                    consistent = False
                    break
                binding[term] = value
            if not consistent:
                continue
            new |= solve_project(database, body_rest, head_args,
                                 binding, stats=stats)
        return new

    def measured_rank(self, system: RecursionSystem,
                      edb: Database) -> int:
        """The actual rank of *system* on *edb*: the largest recursion
        depth that contributed a new tuple."""
        stats = EvaluationStats()
        self.evaluate(system, edb, stats=stats)
        return stats.measured_rank
