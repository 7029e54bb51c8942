"""Naive bottom-up evaluation (the unoptimised baseline).

Every fixpoint round re-evaluates every rule against the whole
database.  Sound and complete for range-restricted programs over
finite EDBs; deliberately wasteful — it is the baseline the paper's
compiled evaluation is measured against.
"""

from __future__ import annotations

from ..datalog.errors import EvaluationError
from ..datalog.program import Program, RecursionSystem
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .query import Query
from .setjoin import apply_rule
from .stats import EvaluationStats
from .trace import Tracer


class NaiveEngine:
    """Round-robin naive fixpoint over all rules.

    Each rule application runs through a compiled hash-join plan
    (:func:`~repro.engine.setjoin.apply_rule`); the evaluation stays
    deliberately wasteful all the same — every round re-joins the
    whole database.
    """

    name = "naive"

    def evaluate(self, system: RecursionSystem | Program, edb: Database,
                 query: Query | None = None,
                 stats: EvaluationStats | None = None,
                 trace: Tracer | None = None
                ) -> frozenset[tuple] | AnswerSet:
        """All tuples of the recursive predicate, filtered by *query*.

        A :class:`Program` with more than one IDB predicate needs a
        *query* to say whose tuples to return.

        >>> from ..datalog.parser import parse_system
        >>> s = parse_system("P(x, y) :- A(x, z), P(z, y).")
        >>> db = Database.from_dict({
        ...     "A": [("a", "b"), ("b", "c")],
        ...     "P__exit": [("c", "c")]})
        >>> sorted(NaiveEngine().evaluate(s, db))
        [('a', 'c'), ('b', 'c'), ('c', 'c')]
        """
        program = (system.program()
                   if isinstance(system, RecursionSystem) else system)
        if stats is None:
            stats = EvaluationStats(engine=self.name)
        else:
            stats.engine = self.name
        stats.truncated = False
        deadline = stats.deadline
        predicates = {rule.head.predicate for rule in program.rules}
        if query is not None:
            target = query.predicate
        elif len(predicates) == 1:
            (target,) = predicates
        else:
            raise EvaluationError(
                "naive evaluation without a query needs exactly one IDB "
                f"predicate; this program defines "
                f"{', '.join(sorted(predicates))}")
        database = edb.copy()
        for predicate in predicates:
            arity = program.rules_for(predicate)[0].head.arity
            database.declare(predicate, arity)

        if trace is not None:
            trace.begin(self.name, predicate=target, query=query)
        while True:
            new_tuples = 0
            if trace is not None:
                trace.begin_round(
                    "round",
                    sum(database.count(p) for p in predicates), stats)
            for position, rule in enumerate(program.rules):
                if trace is not None:
                    trace.begin_rule(f"rule[{position}]: {rule}", stats)
                derived = apply_rule(database, rule.body, (),
                                     rule.head.args, [()], stats)
                for row in derived:
                    # derived rows are storage-space already
                    new_tuples += database.add_encoded(
                        rule.head.predicate, row)
                if trace is not None:
                    trace.end_rule(stats)
            stats.record_round(new_tuples)
            if trace is not None:
                trace.end_round(new_tuples, stats)
            if new_tuples == 0:
                break
            if deadline is not None:
                deadline.check_time()
                if deadline.out_of_rows(
                        sum(database.count(p) for p in predicates)):
                    stats.truncated = True
                    break

        # Answer boundary in storage space: filter encoded rows with
        # the encoded query (encoding is injective, so the filtered
        # set is exactly the old value-space filter) and hand back a
        # lazy AnswerSet instead of eagerly decoding the relation.
        answers = database.rows_encoded(target)
        if query is not None:
            answers = query.encoded(database).filter(answers)
        stats.answers = len(answers)
        if trace is not None:
            trace.finish(len(answers), stats)
        return AnswerSet(answers, database.symbols)
