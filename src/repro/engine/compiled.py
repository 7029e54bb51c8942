"""The compiled engine: classification-driven query evaluation.

This engine executes the strategies that the compiler
(:mod:`repro.core.compile`) selects symbolically:

* **BOUNDED** — the recursion is pseudo recursion: evaluate the finite
  set of exit expansions as conjunctive queries seeded with the query
  constants.  No fixpoint at all.
* **STABLE** — per-position chain iteration.  Bound positions iterate
  their cycle relation forward from the query constant (the ``σR^k``
  branches of the compiled formula); the exit relation is filtered by
  the frontiers at every depth; unbound positions walk their chains
  backward from the exit columns.  Iteration stops when the chain
  state repeats — sound because depth-k answers are a function of the
  state.
* **TRANSFORM** — unfold to the equivalent stable system (Theorem 2/4)
  and run the stable strategy on it.
* **ITERATIVE** — binding-filtered semi-naive: the adornment sequence
  of the query (section 10's query-dependent stability) generates the
  set of relevant recursive-call bindings, and the bottom-up fixpoint
  only keeps tuples matching one of them — selections pushed through
  the recursion exactly where the classification proves they persist.
  The delta rounds are the semi-naive engine's
  (:func:`~repro.engine.vector.run_delta_loop`) with that relevance
  filter applied to every derived row.
"""

from __future__ import annotations

from ..core.bindings import (Adornment, body_adornment,
                             determined_closure)
from ..core.classifier import Classification
from ..core.compile import (CompiledFormula, StableCompilation, Strategy,
                            compile_query)
from ..datalog.program import RecursionSystem
from ..datalog.terms import Variable
from ..graphs.igraph import build_igraph
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .conjunctive import satisfiable, solve_project
from .query import Query
from .stats import EvaluationStats
from .trace import Tracer
from .vector import ColumnarTotal, run_delta_loop, validate_backend


def _product_rows(pattern: tuple,
                  choice_sets: list[tuple[int, tuple]]):
    """Full-arity answer tuples: constants at bound positions, every
    combination of the per-position options at the free ones."""
    base = list(pattern)
    if not choice_sets:
        yield tuple(base)
        return
    position, options = choice_sets[0]
    for value in options:
        base[position] = value
        for rest in _product_rows(tuple(base), choice_sets[1:]):
            yield rest


class CompiledEngine:
    """Evaluate queries using the classification's compiled strategy.

    The ITERATIVE strategy's delta rounds push whole delta relations
    through compiled hash-join plans; the bounded/stable strategies
    are frontier walks over single bindings and run the conjunctive
    solver (:func:`~repro.engine.conjunctive.solve_project`).

    ``backend`` steers the ITERATIVE fixpoint's delta loop exactly as
    on :class:`~repro.engine.seminaive.SemiNaiveEngine` — and only
    when the magic-binding pass proves the recursion *unrestricted*
    (no relevance filter): a binding-restricted loop filters every
    derived row, a shape the vector kernel does not certify.  The
    bounded/stable strategies always run ``"python"``.
    """

    name = "compiled"

    def __init__(self, backend: str = "auto") -> None:
        self.backend = validate_backend(backend)

    def evaluate(self, system: RecursionSystem, edb: Database,
                 query: Query, stats: EvaluationStats | None = None,
                 compiled: CompiledFormula | None = None,
                 trace: Tracer | None = None) -> frozenset[tuple]:
        """Answers to *query*, via the compiled strategy.

        >>> from ..datalog.parser import parse_system
        >>> s = parse_system("P(x, y) :- A(x, z), P(z, y).")
        >>> db = Database.from_dict({
        ...     "A": [("a", "b"), ("b", "c")],
        ...     "P__exit": [("c", "c")]})
        >>> sorted(CompiledEngine().evaluate(s, db, Query.parse("P(a, Y)")))
        [('a', 'c')]
        """
        if stats is None:
            stats = EvaluationStats(engine=self.name)
        else:
            stats.engine = self.name
        stats.truncated = False
        stats.backend = "python"
        if compiled is None:
            compiled = compile_query(system, query.adornment)
        if trace is not None:
            trace.begin(self.name, predicate=system.predicate,
                        query=query,
                        strategy=compiled.strategy.name.lower())

        # The strategies run in storage space: the query's constants
        # are encoded once here, and the answers stay encoded inside a
        # lazy AnswerSet at the end.
        enc_query = query.encoded(edb)
        if compiled.strategy is Strategy.BOUNDED:
            answers = self._evaluate_bounded(system, compiled.classification,
                                             edb, enc_query, stats, trace)
        elif compiled.strategy is Strategy.STABLE:
            answers = self._evaluate_stable(compiled.stable, edb, enc_query,
                                            stats, trace)
        elif compiled.strategy is Strategy.TRANSFORM:
            answers = self._evaluate_stable(compiled.stable, edb, enc_query,
                                            stats, trace)
        else:
            answers = self._evaluate_iterative(system, edb, enc_query,
                                               stats, trace)
        if isinstance(answers, ColumnarTotal):
            # the vectorised fixpoint's columnar product: filter by
            # vector mask, wrap without building row tuples
            answers = answers.filter(enc_query)
        else:
            answers = enc_query.filter(answers)
        stats.answers = len(answers)
        if trace is not None:
            trace.annotate(backend=stats.backend)
            trace.finish(len(answers), stats)
        if isinstance(answers, ColumnarTotal):
            answers = AnswerSet.from_columns(answers.columns(),
                                             edb.symbols)
        else:
            answers = AnswerSet(answers, edb.symbols)
        return answers

    # -- bounded -------------------------------------------------------

    def _evaluate_bounded(self, system: RecursionSystem,
                          classification: Classification, edb: Database,
                          query: Query, stats: EvaluationStats,
                          trace: Tracer | None = None
                          ) -> frozenset[tuple]:
        bound = classification.rank_bound
        assert bound is not None
        deadline = stats.deadline
        answers: set[tuple] = set()
        for exit_index in range(len(system.exits)):
            for depth in range(1, bound + 2):
                if deadline is not None:
                    deadline.check_time()
                    if deadline.out_of_rows(len(answers)):
                        stats.truncated = True
                        return frozenset(answers)
                flattened = system.exit_expansion(depth, exit_index)
                binding: dict[Variable, object] = {}
                consistent = True
                for position, value in query.constants.items():
                    head_term = flattened.head.args[position]
                    assert isinstance(head_term, Variable)
                    if binding.get(head_term, value) != value:
                        consistent = False  # repeated head var conflict
                        break
                    binding[head_term] = value
                if not consistent:
                    continue
                if trace is not None:
                    trace.begin_round("expansion", 0, stats)
                before = len(answers)
                answers |= solve_project(edb, flattened.body,
                                         flattened.head.args, binding,
                                         stats=stats)
                stats.record_round(len(answers) - before)
                if trace is not None:
                    trace.end_round(len(answers) - before, stats,
                                    exit=exit_index, depth=depth)
        return frozenset(answers)

    # -- stable ----------------------------------------------------------

    def _evaluate_stable(self, stable: StableCompilation, edb: Database,
                         query: Query, stats: EvaluationStats,
                         trace: Tracer | None = None) -> frozenset[tuple]:
        system = stable.system
        specs = stable.specs
        deadline = stats.deadline
        bound_positions = sorted(query.adornment)
        free_positions = [s.position for s in specs
                          if s.position not in query.adornment]

        # Exit tuples: every exit rule evaluated once as a plain CQ.
        exit_rows: set[tuple] = set()
        for exit_rule in system.exits:
            exit_rows |= solve_project(edb, exit_rule.body,
                                       exit_rule.head.args, stats=stats)

        gate_open = (not stable.free_atoms
                     or satisfiable(edb, stable.free_atoms, stats=stats))

        def forward(spec, values: frozenset) -> frozenset:
            """One chain step: head-side values to body-side values."""
            out: set = set()
            for value in values:
                if spec.is_permutational:
                    if not spec.atoms or satisfiable(
                            edb, spec.atoms, {spec.head_var: value},
                            stats=stats):
                        out.add(value)
                else:
                    out.update(row[0] for row in solve_project(
                        edb, spec.atoms, (spec.body_var,),
                        {spec.head_var: value}, stats=stats))
            return frozenset(out)

        def backward(spec, pairs: frozenset) -> frozenset:
            """One backward step on (answer-candidate, exit-value) pairs."""
            out: set = set()
            for head_value, exit_value in pairs:
                if spec.is_permutational:
                    if not spec.atoms or satisfiable(
                            edb, spec.atoms, {spec.head_var: head_value},
                            stats=stats):
                        out.add((head_value, exit_value))
                else:
                    for predecessor in solve_project(
                            edb, spec.atoms, (spec.head_var,),
                            {spec.body_var: head_value}, stats=stats):
                        out.add((predecessor[0], exit_value))
            return frozenset(out)

        # Initial state at depth 0.
        frontiers: dict[int, frozenset] = {
            i: frozenset({query.pattern[i]}) for i in bound_positions}
        exit_columns: dict[int, frozenset] = {
            j: frozenset((row[j], row[j]) for row in exit_rows)
            for j in free_positions}

        answers: set[tuple] = set()
        seen_states: set[tuple] = set()
        depth = 0
        while True:
            state = (tuple(frontiers[i] for i in bound_positions),
                     tuple(exit_columns[j] for j in free_positions))
            if state in seen_states:
                break
            seen_states.add(state)
            if trace is not None:
                trace.begin_round(
                    "depth",
                    sum(len(frontiers[i]) for i in bound_positions)
                    + sum(len(exit_columns[j])
                          for j in free_positions), stats)

            # Collect depth-`depth` answers.
            new_answers = 0
            candidates = [row for row in exit_rows
                          if all(row[i] in frontiers[i]
                                 for i in bound_positions)]
            back_maps = {
                j: self._pairs_to_map(exit_columns[j])
                for j in free_positions}
            for exit_row in candidates:
                choice_sets = []
                feasible = True
                for j in free_positions:
                    options = back_maps[j].get(exit_row[j], ())
                    if not options:
                        feasible = False
                        break
                    choice_sets.append((j, options))
                if not feasible:
                    continue
                for combo in _product_rows(query.pattern, choice_sets):
                    if combo not in answers:
                        answers.add(combo)
                        new_answers += 1
            stats.record_round(new_answers)
            if deadline is not None:
                deadline.check_time()
                if deadline.out_of_rows(len(answers)):
                    stats.truncated = True
                    if trace is not None:
                        trace.end_round(new_answers, stats,
                                        depth=depth)
                    break

            if not gate_open:
                if trace is not None:
                    trace.end_round(new_answers, stats, depth=depth)
                break  # nothing beyond depth 0 can ever be derived
            depth += 1
            frontiers = {i: forward(specs[i], frontiers[i])
                         for i in bound_positions}
            exit_columns = {j: backward(specs[j], exit_columns[j])
                            for j in free_positions}
            # The span closes after the chain step so its probe count
            # reflects the work done to *advance* past this depth.
            if trace is not None:
                trace.end_round(new_answers, stats, depth=depth - 1)
            if bound_positions and all(
                    not frontiers[i] for i in bound_positions):
                break
            if not exit_rows:
                break
        return frozenset(answers)

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
                            ) -> frozenset[tuple]:
        deadline = stats.deadline
        if trace is not None:
            trace.begin_round("magic", 0, stats)
        magic, unrestricted = self._magic_bindings(system, edb, query,
                                                   stats)
        if trace is not None:
            trace.end_round(0, stats, unrestricted=unrestricted,
                            bindings=sum(len(v) for v in magic.values()))

        def relevant(row: tuple) -> bool:
            if unrestricted:
                return True
            for adornment, values in magic.items():
                key = tuple(row[i] for i in sorted(adornment))
                if key in values:
                    return True
            return False

        rule = system.recursive
        if trace is not None:
            trace.begin_round("exit", 0, stats)
        total: set[tuple] = set()
        for position, exit_rule in enumerate(system.exits):
            if trace is not None:
                trace.begin_rule(f"exit[{position}]: {exit_rule}", stats)
            total |= {row for row in solve_project(
                edb, exit_rule.body, exit_rule.head.args, stats=stats)
                if relevant(row)}
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

        total = run_delta_loop(edb, rule.nonrecursive_atoms,
                               rule.recursive_atom.args, rule.head.args,
                               total, delta, stats, trace, None,
                               backend=self.backend,
                               relevant=None if unrestricted else relevant)
        return (total if isinstance(total, ColumnarTotal)
                else frozenset(total))

    def _magic_bindings(self, system: RecursionSystem, edb: Database,
                        query: Query, stats: EvaluationStats
                        ) -> tuple[dict[Adornment, set[tuple]], bool]:
        """The relevant recursive-call bindings, per adornment.

        Iterates the sideways-information-passing step: a bound tuple
        at adornment ``a`` joins the (relevant) non-recursive atoms and
        projects onto the determined body positions, producing bound
        tuples at ``body_adornment(a)``.  Finite: adornments × active
        domain tuples.  An empty adornment means the recursion below
        that point is unrestricted.
        """
        rule = system.recursive
        graph = build_igraph(rule)
        head_vars = rule.head_variables
        body_vars = rule.body_recursive_variables

        start = query.adornment
        magic: dict[Adornment, set[tuple]] = {}
        unrestricted = False
        if not start:
            return magic, True
        seed = tuple(query.pattern[i] for i in sorted(start))
        magic[start] = {seed}
        worklist: list[tuple[Adornment, tuple]] = [(start, seed)]

        while worklist:
            adornment, values = worklist.pop()
            next_adornment = body_adornment(rule, adornment, graph)
            if not next_adornment:
                unrestricted = True
                continue
            positions = sorted(adornment)
            binding = {head_vars[i]: v
                       for i, v in zip(positions, values)}
            closure = determined_closure(
                graph, [head_vars[i] for i in positions])
            relevant_atoms = [a for a in rule.nonrecursive_atoms
                              if a.variable_set() & closure]
            out_terms = [body_vars[i] for i in sorted(next_adornment)]
            projected = solve_project(edb, relevant_atoms, out_terms,
                                      binding, stats=stats)
            bucket = magic.setdefault(next_adornment, set())
            for produced in projected:
                if produced not in bucket:
                    bucket.add(produced)
                    worklist.append((next_adornment, produced))
        return magic, unrestricted
