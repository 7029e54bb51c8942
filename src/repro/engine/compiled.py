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
  rounds are the semi-naive engine's
  (:func:`~repro.engine.vector.run_delta_loop`) with that relevance
  filter applied to every derived row.

A STABLE or TRANSFORM query with no bound position has no selection to
push: it runs the unrestricted ITERATIVE fixpoint, and
``stats.strategy`` (and so its trace) names ``iterative`` as the
strategy that ran.
"""

from __future__ import annotations

from ..core.bindings import (Adornment, body_adornment,
                             determined_closure)
from ..core.classifier import Classification
from ..core.compile import (CompiledFormula, CycleSpec, StableCompilation,
                            Strategy, compile_query)
from ..datalog.program import RecursionSystem
from ..datalog.terms import Variable
from ..graphs.igraph import build_igraph
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .conjunctive import satisfiable
from .query import Query
from .setjoin import apply_rule
from .stats import EvaluationStats, open_stats
from .trace import Tracer
from .vector import (ColumnarTotal, answer_boundary, exit_round,
                     run_delta_loop)


def _product_rows(pattern: tuple,
                  choice_sets: list[tuple[int, tuple]]):
    """Full-arity answer tuples: *pattern*'s values where it has
    them, every combination of the per-position options elsewhere."""
    base = list(pattern)
    if not choice_sets:
        yield tuple(base)
        return
    position, options = choice_sets[0]
    for value in options:
        base[position] = value
        for rest in _product_rows(tuple(base), choice_sets[1:]):
            yield rest


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
        strategy = compiled.strategy
        if strategy is not Strategy.BOUNDED and not query.adornment:
            # no bound position: nothing to push down, so the chain
            # walk has no start — run the unrestricted fixpoint
            strategy = Strategy.ITERATIVE
        stats = open_stats(stats, self.name, "python",
                           strategy.name.lower())
        if trace is not None:
            trace.begin(self.name, predicate=system.predicate,
                        query=query)

        # The strategies run in storage space: the query's constants
        # are encoded once here, and the answers stay encoded inside a
        # lazy AnswerSet at the end.
        enc_query = query.encoded(edb)
        if strategy is Strategy.BOUNDED:
            total = self._evaluate_bounded(system, compiled.classification,
                                           edb, enc_query, stats, trace)
        elif strategy is Strategy.ITERATIVE:
            total = self._evaluate_iterative(system, edb, enc_query,
                                             stats, trace)
        else:
            total = self._evaluate_stable(compiled.stable, edb, enc_query,
                                          stats, trace)
        return answer_boundary(total, enc_query, edb, stats, trace)

    # -- bounded -------------------------------------------------------

    def _evaluate_bounded(self, system: RecursionSystem,
                          classification: Classification, edb: Database,
                          query: Query, stats: EvaluationStats,
                          trace: Tracer | None = None) -> set[tuple]:
        """The union of the (bound + 1) × |exits| exit expansions.

        BOUNDED knows its rounds in advance, so it checks the deadline
        before each expansion instead of after it: a spent budget runs
        no further expansion.
        """
        bound = classification.rank_bound
        assert bound is not None
        deadline = stats.deadline
        # the query's constants enter each expansion through its head
        # terms at the bound positions, so the entry layout checks a
        # head constant or a repeated head variable against them
        positions = sorted(query.constants)
        entry = tuple(query.pattern[i] for i in positions)
        answers: set[tuple] = set()
        for exit_index in range(len(system.exits)):
            for depth in range(1, bound + 2):
                if deadline is not None:
                    deadline.check_time()
                    if deadline.out_of_rows(len(answers)):
                        stats.truncated = True
                        return answers
                flattened = system.exit_expansion(depth, exit_index)
                head = flattened.head.args
                if trace is not None:
                    trace.begin_round("expansion", 0, stats)
                before = len(answers)
                answers |= apply_rule(edb, flattened.body,
                                      tuple(head[i] for i in positions),
                                      head, [entry], stats)
                stats.record_round(len(answers) - before)
                if trace is not None:
                    trace.end_round(len(answers) - before, stats,
                                    exit=exit_index, depth=depth)
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

        gate_open = (not stable.free_atoms
                     or satisfiable(edb, stable.free_atoms, stats=stats))

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
            back_maps = {j: self._pairs_to_map(exit_columns[j])
                         for j in walked}
            pattern = list(query.pattern)
            for exit_row in retrieve():
                choice_sets = []
                for j in walked:
                    options = back_maps[j].get(exit_row[j], ())
                    if not options:
                        break
                    choice_sets.append((j, options))
                else:
                    for j in identities:
                        pattern[j] = exit_row[j]
                    for combo in _product_rows(tuple(pattern),
                                               choice_sets):
                        if combo not in answers:
                            answers.add(combo)
                            new_answers += 1
            if not gate_open:
                # nothing beyond depth 0 can ever be derived
                stats.close_round(new_answers, len(answers), trace,
                                  depth=depth)
                break
            depth += 1
            frontiers = {i: forward(i, frontiers[i])
                         for i in bound_positions}
            exit_columns = {j: backward(j, exit_columns[j])
                            for j in walked}
            # The round closes after the chain step so its probe count
            # reflects the work done to *advance* past this depth.
            if (stats.close_round(new_answers, len(answers), trace,
                                  depth=depth - 1)
                    or any(not frontiers[i] for i in bound_positions)):
                break  # σE of an empty frontier is empty from here on
        return answers

    @staticmethod
    def _pairs_to_map(pairs: frozenset) -> dict[object, tuple]:
        by_exit: dict[object, list] = {}
        for head_value, exit_value in pairs:
            by_exit.setdefault(exit_value, []).append(head_value)
        return {key: tuple(values) for key, values in by_exit.items()}

    # -- iterative ---------------------------------------------------------

    def _evaluate_iterative(self, system: RecursionSystem, edb: Database,
                            query: Query, stats: EvaluationStats,
                            trace: Tracer | None = None
                            ) -> set[tuple] | ColumnarTotal:
        if trace is not None:
            trace.begin_round("magic", 0, stats)
        magic, unrestricted = self._magic_bindings(system, edb, query,
                                                   stats)
        if trace is not None:
            trace.end_round(0, stats, unrestricted=unrestricted,
                            bindings=sum(len(v) for v in magic.values()))
        keyed = [(tuple(sorted(adornment)), values)
                 for adornment, values in magic.items() if values]

        def relevant(row: tuple) -> bool:
            for positions, values in keyed:
                if tuple([row[i] for i in positions]) in values:
                    return True
            return False

        # σE: the exit rules probed with each adornment's bindings, or
        # read whole when the recursion below the query is unrestricted
        total, delta = exit_round(
            edb, system.exits, [((), [()])] if unrestricted else keyed,
            stats, trace)
        rule = system.recursive
        return run_delta_loop(edb, rule.nonrecursive_atoms,
                              rule.recursive_atom.args, rule.head.args,
                              total, delta, stats, trace,
                              relevant=None if unrestricted else relevant)

    def _magic_bindings(self, system: RecursionSystem, edb: Database,
                        query: Query, stats: EvaluationStats
                        ) -> tuple[dict[Adornment, set[tuple]], bool]:
        """The relevant recursive-call bindings, per adornment.

        *query* is in storage space.  Iterates the
        sideways-information-passing step set-at-a-time: each round
        joins every new bound tuple at adornment ``a`` with the
        (relevant) non-recursive atoms in one rule application and
        projects onto the determined body positions, producing bound
        tuples at ``body_adornment(a)``.  Finite: adornments × active
        domain tuples.  An empty adornment means the recursion below
        that point is unrestricted.  The deadline is checked once per
        round.
        """
        rule = system.recursive
        start = query.adornment
        magic: dict[Adornment, set[tuple]] = {}
        if not start:
            return magic, True
        graph = build_igraph(rule)
        head_vars = rule.head_variables
        body_vars = rule.body_recursive_variables
        steps: dict[Adornment, tuple | None] = {}

        def step_of(adornment: Adornment) -> tuple | None:
            """(next adornment, entry terms, atoms, output terms) of
            one expansion from *adornment*; None when nothing stays
            bound."""
            next_adornment = body_adornment(rule, adornment, graph)
            if not next_adornment:
                return None
            entry = tuple(head_vars[i] for i in sorted(adornment))
            closure = determined_closure(graph, entry)
            atoms = tuple(a for a in rule.nonrecursive_atoms
                          if a.variable_set() & closure)
            out = tuple(body_vars[i] for i in sorted(next_adornment))
            return next_adornment, entry, atoms, out

        deadline = stats.deadline
        unrestricted = False
        seed = tuple(query.pattern[i] for i in sorted(start))
        magic[start] = {seed}
        frontier: dict[Adornment, set[tuple]] = {start: {seed}}
        while frontier:
            if deadline is not None:
                deadline.check_time()
            produced: dict[Adornment, set[tuple]] = {}
            for adornment, bindings in frontier.items():
                if adornment not in steps:
                    steps[adornment] = step_of(adornment)
                step = steps[adornment]
                if step is None:
                    unrestricted = True
                    continue
                next_adornment, entry, atoms, out = step
                bucket = magic.setdefault(next_adornment, set())
                fresh = apply_rule(edb, atoms, entry, out, bindings,
                                   stats) - bucket
                if fresh:
                    bucket |= fresh
                    produced.setdefault(next_adornment, set()).update(
                        fresh)
            frontier = produced
        return magic, unrestricted
