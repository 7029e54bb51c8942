"""Top-down evaluation by magic sets, the fourth engine.

The paper's compilation lineage is top-down: [Hens 84] compiles
queries by expanding the recursion symbolically and pushing the query
constants through.  This engine is the *interpreted* counterpart: it
reads no classification and passes the query's bindings sideways
through the rule text, from left to right, as QSQ does.

Mechanics: the magic-sets rewriting of the system for the query's
adornment (Bancilhon, Maier, Sagiv and Ullman, PODS 1986).  The
bindings of each recursive call are the facts QSQ would table as
subgoals; :func:`sideways_steps` reads off the rule how one call's
bindings produce the next call's, and
:func:`~repro.engine.vector.magic_fixpoint` derives them set at a
time, then runs the semi-naive fixpoint filtered by them — the frame
the compiled engine's ITERATIVE strategy runs with the classified
steps of its compiled formula.  Like the compiled engine, only
goal-relevant facts are derived; unlike it, none of its per-class
shortcuts are available.
"""

from __future__ import annotations

from ..core.compile import MagicStep
from ..datalog.program import RecursionSystem
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .query import Query
from .stats import EvaluationStats, open_stats
from .trace import Tracer
from .vector import answer_boundary, magic_fixpoint


def sideways_steps(system: RecursionSystem, adornment: frozenset[int]
                   ) -> tuple[MagicStep | None, ...]:
    """The magic steps of *system* for queries bound at *adornment*,
    from the rule text alone.

    A step starts from the head variables at its bound positions and
    walks the body atoms left of the recursive call in body order: an
    atom joins when it shares a variable with what is bound so far.
    The call's next adornment is the set of positions whose variable
    is then bound; the sequence closes when an adornment repeats, and
    a step is None where nothing stays bound (the recursion below is
    unrestricted).

    >>> from ..datalog.parser import parse_system
    >>> s = parse_system("P(x, y, z) :- A(x, u), B(y, v), C(u, v), "
    ...                  "D(w, z), P(u, v, w).")
    >>> [sorted(step.next_adornment) for step in
    ...  sideways_steps(s, frozenset({0}))]
    [[0, 1], [0, 1]]
    """
    rule = system.recursive
    head = rule.head_variables
    call = rule.body_recursive_variables
    body = rule.rule.body
    left = body[:body.index(rule.recursive_atom)]
    states = [adornment]
    steps: list[MagicStep | None] = []
    while len(steps) < len(states):
        entry = tuple(head[i] for i in sorted(states[len(steps)]))
        bound = set(entry)
        atoms = []
        for body_atom in left:
            if body_atom.variable_set() & bound:
                atoms.append(body_atom)
                bound |= body_atom.variable_set()
        following = frozenset(i for i, variable in enumerate(call)
                              if variable in bound)
        if not following:
            steps.append(None)
            continue
        if following not in states:
            states.append(following)
        steps.append(MagicStep(
            following, entry, tuple(atoms),
            tuple(call[i] for i in sorted(following)),
            states.index(following)))
    return tuple(steps)


class TopDownEngine:
    """Goal-directed evaluation by magic sets for one recursion system."""

    name = "top-down"

    def evaluate(self, system: RecursionSystem, edb: Database,
                 query: Query, stats: EvaluationStats | None = None,
                 trace: Tracer | None = None) -> AnswerSet:
        """Answers to *query*, derived from the bindings it reaches.

        >>> from ..datalog.parser import parse_system
        >>> s = parse_system("P(x, y) :- A(x, z), P(z, y).")
        >>> db = Database.from_dict({
        ...     "A": [("a", "b"), ("b", "c")],
        ...     "P__exit": [("c", "c")]})
        >>> sorted(TopDownEngine().evaluate(s, db, Query.parse("P(a, Y)")))
        [('a', 'c')]
        """
        stats = open_stats(stats, self.name, "python")
        if trace is not None:
            trace.begin(self.name, predicate=system.predicate,
                        query=query)
        enc_query = query.encoded(edb)
        total = magic_fixpoint(edb, system,
                               sideways_steps(system, query.adornment),
                               enc_query, stats, trace)
        return answer_boundary(total, enc_query, edb, stats, trace)
