"""The compiled engine: classification-driven query evaluation.

This engine executes the strategies that the compiler
(:mod:`repro.core.compile`) selects symbolically:

* **BOUNDED** — the recursion is pseudo recursion: evaluate the finite
  set of exit expansions, one rule application each, with the query
  constants bound to the expansion's head.  No fixpoint at all.
* **STABLE** — per-position chain iteration, selection first.  Bound
  positions iterate their cycle relation forward from the query
  constant (the ``σR^k`` branches of the compiled formula); at every
  depth the exit rules are probed on one bound column with that
  depth's frontier and checked on the others (``σE``), so a bound
  transitive-closure query costs O(depth + answers).  A free position
  whose cycle is a bare self-loop is the identity: its answer is the
  exit value.  Only free positions that really walk a chain
  (rotational, or a self-loop with atoms) scan the exit relation and
  walk backward from its columns.  Iteration stops when the chain
  state repeats — sound because depth-k answers are a function of the
  state.
* **TRANSFORM** — unfold to the equivalent stable system (Theorem 2/4)
  and run the stable strategy on it.
* **ITERATIVE** — binding-filtered semi-naive: the adornment sequence
  of the query (section 10's query-dependent stability) generates the
  set of relevant recursive-call bindings, one set-at-a-time rule
  application per round, and the bottom-up fixpoint only keeps tuples
  matching one of them — selections pushed through the recursion
  exactly where the classification proves they persist.  The exit
  round probes the exit rules with those bindings (``σE``); the delta
  rounds are the semi-naive engine's with that relevance filter
  applied to every derived row
  (:func:`~repro.engine.vector.magic_fixpoint`, which the top-down
  engine runs with its own steps).  A system whose recursive rule
  holds a *detached* component (class C's Example 9) runs no fixpoint
  of P at all: its answers are σE ∪ (σ detached) × R, with R the
  compiler's query-independent auxiliary recursion.

A STABLE or TRANSFORM query with no bound position has no selection to
push: it runs the unrestricted ITERATIVE fixpoint, and
``stats.strategy`` (and so its trace) names ``iterative`` as the
strategy that ran.

A query resolves nothing: the engine reads only the compiled formula
of its query form.
"""

from __future__ import annotations

from itertools import product

from ..core.compile import (CompiledFormula, CycleSpec, StableCompilation,
                            Strategy, compile_query)
from ..datalog.errors import EvaluationError
from ..datalog.program import RecursionSystem
from ..datalog.terms import Variable
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .plan import compile_plan
from .query import Query
from .setjoin import apply_rule, execute_plan, execute_split
from .stats import EvaluationStats, open_stats
from .trace import Tracer
from .vector import (answer_boundary, exit_round, magic_fixpoint,
                     run_delta_loop)


def _is_identity(spec: CycleSpec) -> bool:
    """A bare self-loop: the chain step maps every value to itself."""
    return spec.is_permutational and not spec.atoms


class CompiledEngine:
    """Evaluate queries using the classification's compiled strategy.

    Every strategy pushes whole frontiers and binding sets through
    compiled hash-join plans
    (:func:`~repro.engine.setjoin.apply_rule`): one rule application
    per exit expansion (BOUNDED), per depth (STABLE/TRANSFORM) or per
    round (ITERATIVE).

    The ITERATIVE fixpoint's delta loop may run on the vector kernel
    (:func:`~repro.engine.vector.run_delta_loop` decides), but only
    when the magic-binding pass proves the recursion *unrestricted*
    (no relevance filter): a binding-restricted loop filters every
    derived row, a shape the vector kernel does not certify.  The
    bounded/stable strategies always run ``"python"``.
    """

    name = "compiled"

    def evaluate(self, system: RecursionSystem, edb: Database,
                 query: Query, stats: EvaluationStats | None = None,
                 compiled: CompiledFormula | None = None,
                 trace: Tracer | None = None) -> AnswerSet:
        """Answers to *query*, via the compiled strategy.

        >>> from ..datalog.parser import parse_system
        >>> s = parse_system("P(x, y) :- A(x, z), P(z, y).")
        >>> db = Database.from_dict({
        ...     "A": [("a", "b"), ("b", "c")],
        ...     "P__exit": [("c", "c")]})
        >>> sorted(CompiledEngine().evaluate(s, db, Query.parse("P(a, Y)")))
        [('a', 'c')]
        """
        if compiled is None:
            compiled = compile_query(system, query.adornment)
        elif compiled.adornment != query.adornment:
            raise EvaluationError(
                f"the formula is compiled for {compiled.system.predicate}"
                f"({compiled.query_form}) queries, not for {query}")
        strategy = compiled.strategy
        if strategy is not Strategy.BOUNDED and not query.adornment:
            # no bound position: nothing to push down, so the chain
            # walk has no start — run the unrestricted fixpoint
            strategy = Strategy.ITERATIVE
        stats = open_stats(stats, self.name, "python",
                           strategy.name.lower())
        if trace is not None:
            trace.begin(self.name, predicate=compiled.system.predicate,
                        query=query)

        # The strategies run in storage space: the query's constants
        # are encoded once here, and the answers stay encoded inside a
        # lazy AnswerSet at the end.  Every strategy but the fixpoint
        # binds those constants at their head positions, so only the
        # fixpoint's rows are filtered by the query.
        enc_query = query.encoded(edb)
        selection = None
        if strategy is Strategy.BOUNDED:
            total = self._evaluate_bounded(compiled, edb, enc_query, stats,
                                           trace)
        elif strategy is not Strategy.ITERATIVE:
            total = self._evaluate_stable(compiled.stable, edb, enc_query,
                                          stats, trace)
        elif compiled.auxiliary is not None:
            total = self._evaluate_auxiliary(compiled, edb, enc_query,
                                             stats, trace)
        else:
            total = magic_fixpoint(edb, compiled.system, compiled.magic,
                                   enc_query, stats, trace,
                                   loop=run_delta_loop)
            selection = enc_query
        return answer_boundary(total, selection, edb, stats, trace)

    # -- bounded -------------------------------------------------------

    def _evaluate_bounded(self, compiled: CompiledFormula, edb: Database,
                          query: Query, stats: EvaluationStats,
                          trace: Tracer | None = None) -> set[tuple]:
        """The union of the (bound + 1) × |exits| exit expansions.

        An expansion whose body falls apart into components runs as
        the paper's plan prints it: existence checks, then the
        selection, then the Cartesian product of the other components
        (:mod:`~repro.engine.setjoin`); its trace round records how many
        components ran and whether the checks held.  BOUNDED knows its
        rounds in advance, so it checks the deadline before each
        expansion instead of after it: a spent budget runs no further
        expansion.
        """
        depths = len(compiled.expansions) // len(compiled.system.exits)
        deadline = stats.deadline
        # the query's constants enter each expansion through its head
        # terms at the bound positions, so the entry layout checks a
        # head constant or a repeated head variable against them
        positions = sorted(query.constants)
        entry = tuple(query.pattern[i] for i in positions)
        answers: set[tuple] = set()
        for index, flattened in enumerate(compiled.expansions):
            if deadline is not None:
                deadline.check_time()
                if deadline.out_of_rows(len(answers)):
                    stats.truncated = True
                    return answers
            head = flattened.head.args
            if trace is not None:
                trace.begin_round("expansion", 0, stats)
            before = len(answers)
            plan = compile_plan(flattened.body,
                                tuple(head[i] for i in positions), head,
                                edb, stats)
            batch = plan.layout.batch([entry])
            stats.record_batch(len(batch))
            if plan.components:
                rows, checked = execute_split(edb, plan, batch, stats)
            else:
                rows, checked = execute_plan(edb, plan, batch, stats), None
            answers |= rows
            stats.record_round(len(answers) - before)
            if trace is not None:
                exit_index, depth = divmod(index, depths)
                checks = {} if checked is None else {"exists": checked}
                trace.end_round(len(answers) - before, stats,
                                exit=exit_index, depth=depth + 1,
                                components=plan.parts, **checks)
        return answers

    # -- stable ----------------------------------------------------------

    def _evaluate_stable(self, stable: StableCompilation, edb: Database,
                         query: Query, stats: EvaluationStats,
                         trace: Tracer | None = None) -> set[tuple]:
        """σ-first chain iteration; *query* binds at least one position.

        Depth k's answers join ``σR^k`` of every bound position with
        the exit rows whose bound columns lie in those frontiers; a
        walked free position maps each exit value back to the values
        k chain steps before it.
        """
        system = stable.system
        specs = stable.specs
        bound_positions = sorted(query.adornment)
        free = [s for s in specs if s.position not in query.adornment]
        identities = [s.position for s in free if _is_identity(s)]
        walked = [s.position for s in free if not _is_identity(s)]

        def probe_once(memo: dict, values, probe) -> dict:
            """*memo* (value → items) filled for every value in
            *values*: one batch *probe* for the values it lacks, so a
            value recurring at several depths is probed once."""
            missing = [value for value in values if value not in memo]
            if missing:
                for value in missing:
                    memo[value] = []
                for value, item in probe([(value,) for value in missing]):
                    memo[value].append(item)
            return memo

        def chain(spec: CycleSpec, entry_var: Variable,
                  out_var: Variable):
            """A batch probe of one chain step: (entry, out) pairs."""
            return lambda batch: apply_rule(
                edb, spec.atoms, (entry_var,), (entry_var, out_var),
                batch, stats)

        def forward(i: int, values: frozenset) -> frozenset:
            """One chain step: head-side values to body-side values."""
            spec = specs[i]
            if _is_identity(spec):
                return values
            images = probe_once(ahead[i], values,
                                chain(spec, spec.head_var, spec.body_var))
            return frozenset(out for value in values
                             for out in images[value])

        def backward(j: int, pairs: frozenset) -> frozenset:
            """One backward step on (answer-candidate, exit-value) pairs."""
            spec = specs[j]
            images = probe_once(behind[j], {head for head, _ in pairs},
                                chain(spec, spec.body_var, spec.head_var))
            return frozenset((before, exit_value)
                             for head, exit_value in pairs
                             for before in images[head])

        def exit_probe(pivot: int):
            """A batch probe of every exit rule on one bound column:
            (pivot value, exit row) pairs."""
            if walked:
                return lambda batch: ()  # the memos hold every exit row
            return lambda batch: (
                (row[pivot], row) for exit_rule in system.exits
                for row in apply_rule(edb, exit_rule.body,
                                      (exit_rule.head.args[pivot],),
                                      exit_rule.head.args, batch, stats))

        def retrieve() -> list[tuple]:
            """σE: the exit rows whose bound columns lie in the
            frontiers — probed on the smallest frontier's column,
            checked on the others."""
            pivot = min(bound_positions, key=lambda i: len(frontiers[i]))
            rows = probe_once(exits_at[pivot], frontiers[pivot],
                              exit_probe(pivot))
            others = [i for i in bound_positions if i != pivot]
            return [row for value in frontiers[pivot] for row in rows[value]
                    if all(row[i] in frontiers[i] for i in others)]

        # per-query memos: value → chain-step images / exit rows
        ahead: dict[int, dict] = {i: {} for i in bound_positions}
        behind: dict[int, dict] = {j: {} for j in walked}
        exits_at: dict[int, dict] = {i: {} for i in bound_positions}

        exit_columns: dict[int, frozenset] = {}
        if walked:
            # a walked position starts from every exit value, so the
            # whole exit relation is read once and indexed for σE
            exit_rows: set[tuple] = set()
            for exit_rule in system.exits:
                exit_rows |= apply_rule(edb, exit_rule.body, (),
                                        exit_rule.head.args, [()], stats)
            exit_columns = {j: frozenset((row[j], row[j])
                                         for row in exit_rows)
                            for j in walked}
            for i in bound_positions:
                for row in exit_rows:
                    exits_at[i].setdefault(row[i], []).append(row)

        # the atoms no chain carries: one existence check, the gate of
        # every depth past the first
        gate_open, gate = True, {}
        if stable.free_atoms:
            gate_open = bool(apply_rule(edb, stable.free_atoms, (), (),
                                        [()], stats))
            gate = {"gate": "held" if gate_open else "failed"}

        # Initial state at depth 0.
        frontiers: dict[int, frozenset] = {
            i: frozenset({query.pattern[i]}) for i in bound_positions}

        answers: set[tuple] = set()
        seen_states: set[tuple] = set()
        depth = 0
        while True:
            state = (tuple(frontiers[i] for i in bound_positions),
                     tuple(exit_columns[j] for j in walked))
            if state in seen_states:
                break
            seen_states.add(state)
            if trace is not None:
                trace.begin_round(
                    "depth",
                    sum(len(frontiers[i]) for i in bound_positions)
                    + sum(len(exit_columns[j]) for j in walked), stats)

            # Collect depth-`depth` answers.
            new_answers = 0
            # walked position → exit value → the values k steps before
            back_maps: dict[int, dict] = {j: {} for j in walked}
            for j in walked:
                for head_value, exit_value in exit_columns[j]:
                    back_maps[j].setdefault(exit_value, []).append(head_value)
            pattern = list(query.pattern)
            for exit_row in retrieve():
                for j in identities:
                    pattern[j] = exit_row[j]
                # every combination of the walked positions' options
                for values in product(*(back_maps[j].get(exit_row[j], ())
                                        for j in walked)):
                    for j, value in zip(walked, values):
                        pattern[j] = value
                    combo = tuple(pattern)
                    if combo not in answers:
                        answers.add(combo)
                        new_answers += 1
            if not gate_open:
                # nothing beyond depth 0 can ever be derived
                stats.close_round(new_answers, len(answers), trace,
                                  depth=depth, **gate)
                break
            depth += 1
            frontiers = {i: forward(i, frontiers[i])
                         for i in bound_positions}
            exit_columns = {j: backward(j, exit_columns[j])
                            for j in walked}
            # The round closes after the chain step so its probe count
            # reflects the work done to *advance* past this depth.
            if (stats.close_round(new_answers, len(answers), trace,
                                  depth=depth - 1,
                                  **(gate if depth == 1 else {}))
                    or any(not frontiers[i] for i in bound_positions)):
                break  # σE of an empty frontier is empty from here on
        return answers

    # -- iterative (auxiliary recursion) ----------------------------------

    def _evaluate_auxiliary(self, compiled: CompiledFormula,
                            edb: Database, query: Query,
                            stats: EvaluationStats,
                            trace: Tracer | None = None) -> set[tuple]:
        """Example 9's plan, σE ∪ (σ detached) × R.

        σE is the exit round with the query's bindings.  R, the
        compiled auxiliary recursion, binds no query constant: its
        exit round and delta rounds are an ordinary fixpoint's.  One
        ``product`` round then places each detached row and each
        selected row of R at their head positions.  When the query
        binds all of R's positions, one lookup in R (the paper's
        existence check) stands for R's side; an empty R side leaves
        the detached atoms unprobed.
        """
        auxiliary = compiled.auxiliary
        pattern = query.pattern
        bound = tuple(sorted(query.adornment))
        answers, _ = exit_round(edb, compiled.system.exits,
                                [(bound, [tuple(pattern[i] for i in bound)])],
                                stats, trace)
        if stats.truncated:
            return answers
        recursion = auxiliary.system
        total, delta = exit_round(edb, recursion.exits, [((), [()])],
                                  stats, trace)
        rule = recursion.recursive
        # the product round selects and places R's rows one by one, so
        # R's loop hands back a row set: its python rounds
        rows = run_delta_loop(edb, rule.nonrecursive_atoms,
                              rule.recursive_atom.args, rule.head.args,
                              total, delta, stats, trace,
                              backend="python")
        if stats.truncated:
            return answers

        if trace is not None:
            trace.begin_round("product", len(rows), stats)
        positions = auxiliary.positions
        rest = tuple(i for i in range(len(pattern)) if i not in positions)
        wanted = tuple(pattern[i] for i in rest)
        if None not in wanted:
            selected = {wanted} & rows
        elif wanted.count(None) < len(wanted):
            selected = Query(recursion.predicate, wanted).filter(rows)
        else:
            selected = rows
        detached: set[tuple] = set()
        if selected:
            head = compiled.system.recursive.head.args
            entry = [i for i in positions if pattern[i] is not None]
            detached = apply_rule(edb, auxiliary.detached,
                                  tuple(head[i] for i in entry),
                                  tuple(head[i] for i in positions),
                                  [tuple(pattern[i] for i in entry)], stats)
        before = len(answers)
        order = positions + rest
        place = [order.index(i) for i in range(len(pattern))]
        for left in detached:
            for right in selected:
                joined = left + right
                answers.add(tuple([joined[j] for j in place]))
        stats.close_round(len(answers) - before, len(answers), trace,
                          detached=len(detached), auxiliary=len(selected))
        return answers
