"""Compilation of queries against classified recursive formulas.

This module compiles a recursion system once (:func:`compile_system`:
the strategy the classification licenses and what the compiled engine
runs for it, such as the per-cycle chain specification of a stable
formula), then each query form (adornment) into a
:class:`CompiledFormula` with its plan in the paper's notation.

Strategy selection follows the paper:

* **BOUNDED** (classes A2, A4, B, D and their disjoint combinations) —
  the recursion is pseudo recursion; the plan is the finite union of
  the exit expansions up to the rank bound, each ordered
  selection-first.
* **STABLE** (disjoint unit cycles, Theorem 1) — per-position chain
  iteration: bound positions iterate their cycle relation from the
  query constant (``σA^k`` branches), the exit is joined at each
  depth, unbound positions walk their chains backward from the exit.
* **TRANSFORM** (classes A3, A4-mixed, A5) — unfold LCM(cycle
  weights) times (Theorems 2/4), then compile the stable result.
* **ITERATIVE** (classes C, E, F) — no stable transformation exists
  (Theorems 5, 8, 9); the plan is derived from the resolution graph:
  the steady-state expansion is ordered selection-first, the atoms one
  further unfolding adds form the per-iteration block ``[...]^k``, and
  disconnected groups become Cartesian products or existence checks —
  exactly how the paper derives the plans of Examples 9, 11 and 14.
  When the recursive rule's non-recursive atoms hold a component that
  touches head variables but not the recursive call, the compiler also
  derives Example 9's auxiliary recursion (:class:`AuxiliaryRecursion`),
  which the engine runs instead of the fixpoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..datalog.atoms import Atom, connected_groups
from ..datalog.errors import EvaluationError, RuleValidationError
from ..datalog.program import RecursionSystem
from ..datalog.rules import RecursiveRule, Rule
from ..datalog.terms import Variable
from ..datalog.unify import (apply_to_atom, apply_to_rule, rename_apart,
                             unify_atoms)
from ..graphs.components import components
from .bindings import (Adornment, BindingSequence, adornment_from_string,
                       adornment_to_string, binding_sequence,
                       determined_closure)
from .classes import Boundedness
from .classifier import Classification, classify
from .plans import (Branches, Exists, JoinChain, PlanNode, Power, Product,
                    Rel, Select, Steps, UnionOverK, render)
from .transform import StableTransformation, to_nonrecursive, to_stable

#: Name used for the generic exit relation in symbolic plans.
EXIT_NAME = "E"


class Strategy(enum.Enum):
    """How a compiled query will be evaluated."""

    BOUNDED = "bounded"      #: finite union of exit expansions
    STABLE = "stable"        #: per-cycle chain iteration
    TRANSFORM = "transform"  #: unfold to stable, then chain iteration
    ITERATIVE = "iterative"  #: resolution-graph-driven iteration

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CycleSpec:
    """One unit cycle of a stable formula, ready for execution.

    Attributes
    ----------
    position:
        0-based recursive argument position the cycle carries.
    head_var / body_var:
        The consequent and antecedent variables of the position.
    is_permutational:
        True for self-loops (``head_var == body_var``); the chain step
        is then the identity, filtered by any decoration atoms.
    atoms:
        The non-recursive atoms whose variables live in this cycle's
        component — the conjunctive query one chain step evaluates.
    label:
        Concatenated predicate names (the paper's "AB" notation);
        empty for a bare self-loop.
    """

    position: int
    head_var: Variable
    body_var: Variable
    is_permutational: bool
    atoms: tuple[Atom, ...]
    label: str


@dataclass(frozen=True)
class StableCompilation:
    """A stable system factored into per-position cycle chains."""

    system: RecursionSystem
    classification: Classification
    specs: tuple[CycleSpec, ...]
    free_atoms: tuple[Atom, ...]


def compile_stable(system: RecursionSystem,
                   classification: Classification | None = None
                   ) -> StableCompilation:
    """Factor a strongly stable system into per-position cycle specs.

    Raises ``ValueError`` when the system is not strongly stable.

    >>> from ..datalog.parser import parse_system
    >>> s = parse_system(
    ...     "P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).")
    >>> comp = compile_stable(s)
    >>> [(spec.position, spec.label) for spec in comp.specs]
    [(0, 'A'), (1, 'B'), (2, 'C')]
    """
    rule = system.recursive
    if classification is None:
        classification = classify(rule)
    if not classification.is_strongly_stable:
        raise ValueError(
            f"system is not strongly stable "
            f"({classification.formula_class}): {rule}")

    graph = classification.graph
    comps = components(graph)

    def component_of(var: Variable) -> frozenset[Variable]:
        return next(c for c in comps if var in c)

    head_vars = rule.head_variables
    body_vars = rule.body_recursive_variables
    assigned: set[int] = set()
    specs: list[CycleSpec] = []
    for position, (head_var, body_var) in enumerate(
            zip(head_vars, body_vars)):
        component = component_of(head_var)
        atoms: list[Atom] = []
        for atom_index, body_atom in enumerate(rule.nonrecursive_atoms):
            atom_vars = body_atom.variable_set()
            if atom_vars and atom_vars <= component:
                atoms.append(body_atom)
                assigned.add(atom_index)
        label = "".join(
            dict.fromkeys(a.predicate for a in atoms
                          if {head_var, body_var} & a.variable_set()))
        specs.append(CycleSpec(position=position,
                               head_var=head_var,
                               body_var=body_var,
                               is_permutational=head_var == body_var,
                               atoms=tuple(atoms),
                               label=label))

    free_atoms = tuple(
        body_atom
        for atom_index, body_atom in enumerate(rule.nonrecursive_atoms)
        if atom_index not in assigned)
    return StableCompilation(system=system,
                             classification=classification,
                             specs=tuple(specs),
                             free_atoms=free_atoms)


def stable_plan(compilation: StableCompilation,
                adornment: Adornment) -> PlanNode:
    """The paper's compiled formula for a stable system and query form.

    Bound rotational positions become ``σR^k`` branches, the exit is
    joined at every depth, unbound rotational positions walk their
    chain relations after the exit; permutational positions need no
    chain (bound ones select directly on the exit).
    """
    bound_branches: list[PlanNode] = []
    exit_selected = False
    for position in sorted(adornment):
        spec = compilation.specs[position]
        if spec.is_permutational:
            exit_selected = True
            if spec.atoms:
                bound_branches.append(Select(Rel(spec.label or "id")))
        else:
            bound_branches.append(Select(Power(Rel(spec.label))))

    after_exit: list[PlanNode] = []
    for spec in compilation.specs:
        if spec.position in adornment or spec.is_permutational:
            continue
        after_exit.append(Power(Rel(spec.label)))

    chain: list[PlanNode] = []
    if len(bound_branches) > 1:
        chain.append(Branches(tuple(bound_branches)))
    elif bound_branches:
        chain.append(bound_branches[0])
    exit_node: PlanNode = Rel(EXIT_NAME)
    if exit_selected:
        exit_node = Select(exit_node)
    chain.append(exit_node)
    chain.extend(after_exit)
    body: PlanNode = JoinChain(tuple(chain)) if len(chain) > 1 else chain[0]
    if compilation.free_atoms:
        gate = Exists(JoinChain(tuple(
            Rel(a.predicate) for a in compilation.free_atoms)))
        body = JoinChain((gate, body))
    return Steps((Select(Rel(EXIT_NAME)), UnionOverK(body, start=0)))


# ---------------------------------------------------------------------------
# Ordering a conjunctive body the paper's way: selections before joins,
# exit retrieval when stuck, Cartesian products / existence checks for
# disconnected groups, and [...]^k factoring of the per-expansion block.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OrderedGroup:
    """One variable-connected group of an expansion body, ordered.

    ``down`` holds the atoms reachable from the query constants in
    greedy stage order (these get the σ and are evaluated before the
    exit); ``up`` the atoms reached backward from the exit; atoms
    disconnected from both are appended to ``down`` in body order.
    """

    down: tuple[Atom, ...]
    up: tuple[Atom, ...]
    has_exit: bool
    produces_answer: bool
    seeded: bool  # down[0] touches a query constant (gets the σ)


def _stage_order(atoms: list[Atom], seeds: set[Variable]
                 ) -> tuple[list[Atom], set[Variable]]:
    """Greedy stage ordering: repeatedly take every atom touching a
    determined variable (the paper's selections-first principle)."""
    ordered: list[Atom] = []
    determined = set(seeds)
    remaining = list(atoms)
    while True:
        stage = [a for a in remaining if a.variable_set() & determined]
        if not stage:
            return ordered, determined
        for body_atom in stage:
            ordered.append(body_atom)
            determined.update(body_atom.variable_set())
            remaining.remove(body_atom)


def _structure_body(atoms: tuple[Atom, ...], exit_atom: Atom | None,
                    constants: frozenset[Variable],
                    free_head_vars: frozenset[Variable]
                    ) -> list[_OrderedGroup]:
    """Split a body into connected groups and order each one."""
    everything = list(atoms) if exit_atom is None else [*atoms, exit_atom]
    out: list[_OrderedGroup] = []
    # groups in order of their first atom, as the join kernel runs them
    for indices in connected_groups(everything, constants).values():
        # the exit atom, when given, is the last index
        members = [everything[i] for i in indices if i < len(atoms)]
        has_exit = exit_atom is not None and len(atoms) in indices
        down, determined = _stage_order(members, set(constants))
        seeded = bool(down) and bool(down[0].variable_set() & constants)
        up: list[Atom] = []
        if has_exit and exit_atom is not None:
            determined |= exit_atom.variable_set()
            rest = [a for a in members if a not in down]
            up, determined = _stage_order(rest, determined)
        leftover = [a for a in members if a not in down and a not in up]
        down += leftover  # disconnected stragglers keep body order
        group_vars: set[Variable] = set()
        for body_atom in members:
            group_vars |= body_atom.variable_set()
        if has_exit and exit_atom is not None:
            group_vars |= exit_atom.variable_set()
        produces = bool(group_vars & (free_head_vars - constants))
        out.append(_OrderedGroup(down=tuple(down), up=tuple(up),
                                 has_exit=has_exit,
                                 produces_answer=produces,
                                 seeded=seeded))
    return out


def _display_name(predicate: str) -> str:
    """Synthesised generic exits print as the paper's ``E``."""
    if predicate.endswith(RecursionSystem.EXIT_SUFFIX):
        return EXIT_NAME
    return predicate


def _collapse_stages(items: tuple[Atom, ...]) -> PlanNode:
    """Group consecutive variable-independent atoms into branches.

    Reproduces the paper's ``{A, B}-C`` notation in the s11 plan: two
    atoms with no shared variable evaluate as parallel branches.
    """
    nodes: list[PlanNode] = []
    index = 0
    while index < len(items):
        bunch = [items[index]]
        used = set(items[index].variable_set())
        probe = index + 1
        while probe < len(items) and not (
                items[probe].variable_set() & used):
            bunch.append(items[probe])
            used |= items[probe].variable_set()
            probe += 1
        if len(bunch) > 1:
            nodes.append(Branches(tuple(
                Rel(_display_name(a.predicate)) for a in bunch)))
        else:
            nodes.append(Rel(_display_name(bunch[0].predicate)))
        index = probe
    return nodes[0] if len(nodes) == 1 else JoinChain(tuple(nodes))


def _factor_side(sequence: tuple[Atom, ...],
                 levels: dict[Atom, int] | None,
                 shallow_max: int, is_down: bool) -> list[PlanNode]:
    """Factor one side (down or up chain) into nodes with a [...]^k block.

    Two heuristics, in order:

    * **level-uniform** — when the per-level atom multisets of the deep
      levels agree, one level's atoms form the iterated block and the
      shallow atoms the concrete prefix (down) or suffix (up); this
      reproduces the paper's s11 plan ``σA-C-B-[{A,B}-C]^k-E``.
    * **sequence alignment** — when atoms migrate between the down and
      up sides across expansions (class C formulas such as s9), find a
      split ``seq = prefix + block + suffix`` such that dropping the
      block leaves a sequence one period shorter with matching
      predicates; this reproduces ``σ(AB)^k-(E⋈B)``.

    Falls back to a shallow-first reordering when neither applies.
    """
    if not sequence:
        return []
    if levels is None:
        return [_collapse_stages(sequence)]
    shallow = tuple(a for a in sequence if levels[a] <= shallow_max)
    deep = tuple(a for a in sequence if levels[a] > shallow_max)
    if not deep:
        return [_collapse_stages(sequence)]

    # The deepest expansion level is a boundary artifact (its partner
    # atoms may sit on the other side of the exit) — exclude it from
    # the uniformity test and from block selection.
    boundary = max(levels[a] for a in deep)
    per_level: dict[int, list[str]] = {}
    for body_atom in deep:
        if levels[body_atom] == boundary:
            continue
        per_level.setdefault(levels[body_atom], []).append(
            body_atom.predicate)
    multisets = [tuple(sorted(preds)) for preds in per_level.values()]
    if per_level and len(set(multisets)) == 1:
        first_deep_level = min(per_level)
        block_atoms = tuple(a for a in deep
                            if levels[a] == first_deep_level)
        block = Power(_collapse_stages(block_atoms))
        if is_down:
            # The binding may enter through the deep atoms (class C
            # chains): keep the σ on whatever the stage order put
            # first.
            if shallow and sequence[0] in shallow:
                return [_collapse_stages(shallow), block]
            if shallow:
                return [block, _collapse_stages(shallow)]
            return [block]
        suffix = [_collapse_stages(shallow)] if shallow else []
        return [block] + suffix

    # Sequence alignment: one period of the deepest level's size.
    block_size = sum(1 for a in deep if levels[a] == boundary)
    predicates = [a.predicate for a in sequence]
    small = [a.predicate for a in sequence if levels[a] < boundary]
    for i in range(len(small) + 1):
        if (predicates[:i] == small[:i]
                and predicates[i + block_size:] == small[i:]):
            block_atoms = tuple(sequence[i:i + block_size])
            nodes: list[PlanNode] = []
            if i:
                nodes.append(_collapse_stages(tuple(sequence[:i])))
            nodes.append(Power(_collapse_stages(block_atoms)))
            if small[i:]:
                nodes.append(_collapse_stages(
                    tuple(sequence[i + block_size:])))
            return nodes

    # Fallback: shallow atoms first, deep atoms as the block.
    nodes = []
    if shallow:
        nodes.append(_collapse_stages(shallow))
    nodes.append(Power(_collapse_stages(deep)))
    return nodes


def _chain_nodes(group: _OrderedGroup,
                 levels: dict[Atom, int] | None = None,
                 shallow_max: int = 0) -> PlanNode:
    """Render one ordered group as a join chain with iteration blocks."""
    nodes: list[PlanNode] = []
    nodes.extend(_factor_side(group.down, levels, shallow_max,
                              is_down=True))
    if group.seeded and nodes:
        nodes[0] = Select(nodes[0])
    if group.has_exit:
        nodes.append(Rel(EXIT_NAME))
    nodes.extend(_factor_side(group.up, levels, shallow_max,
                              is_down=False))
    if not nodes:
        return Rel(EXIT_NAME)
    return nodes[0] if len(nodes) == 1 else JoinChain(tuple(nodes))


def _assemble_groups(groups: list[_OrderedGroup],
                     levels: dict[Atom, int] | None = None,
                     shallow_max: int = 0) -> PlanNode:
    """Combine ordered groups: products for answers, ∃ for the rest."""
    answer_parts: list[PlanNode] = []
    gates: list[PlanNode] = []
    for group in groups:
        chain = _chain_nodes(group, levels, shallow_max)
        if group.produces_answer:
            answer_parts.append(chain)
        else:
            gates.append(Exists(chain))
    if not answer_parts:
        return gates[0] if len(gates) == 1 else JoinChain(tuple(gates))
    body = (answer_parts[0] if len(answer_parts) == 1
            else Product(tuple(answer_parts)))
    if gates:
        body = JoinChain(tuple(gates) + (body,))
    return body


def bounded_plan(system: RecursionSystem, expansions: tuple[Rule, ...],
                 adornment: Adornment) -> PlanNode:
    """Finite plan for a bounded formula: one chain per exit depth of
    the first exit in *expansions*, the :func:`to_nonrecursive` union."""
    head_vars = system.recursive.head_variables
    constants = frozenset(head_vars[i] for i in adornment)
    free = frozenset(head_vars) - constants
    depths = len(expansions) // len(system.exits)
    return Steps(tuple(
        _assemble_groups(_structure_body(tuple(flattened.body), None,
                                         constants, free))
        for flattened in expansions[:depths]))


def _atom_levels(system: RecursionSystem,
                 depth: int) -> tuple[Rule, dict[Atom, int]]:
    """The *depth*-th expansion with each body atom's creation level."""
    levels: dict[Atom, int] = {}
    previous: frozenset[Atom] = frozenset()
    expansion = system.recursive.rule
    for level in range(1, depth + 1):
        expansion = system.expansion(level)
        body = frozenset(a for a in expansion.body
                         if a.predicate != system.predicate)
        for body_atom in body - previous:
            levels[body_atom] = level
        previous = body
    return expansion, levels


def general_plan(system: RecursionSystem, adornment: Adornment,
                 sequence: BindingSequence) -> PlanNode:
    """Resolution-graph-driven plan for classes C, E and F.

    Following the paper's Example 11: the plan lists σE, a concrete
    step per expansion up to the binding period, then the infinite
    union whose [...]^k blocks come from factoring the deep expansion
    levels (one binding period deeper than the base).
    """
    rule = system.recursive
    head_vars = rule.head_variables
    constants = frozenset(head_vars[i] for i in adornment)
    free = frozenset(head_vars) - constants
    period = sequence.period

    steps: list[PlanNode] = [Select(Rel(EXIT_NAME))]
    for early in range(1, period + 1):
        expansion = system.expansion(early)
        body = tuple(a for a in expansion.body
                     if a.predicate != system.predicate)
        exit_atom = next(a for a in expansion.body
                         if a.predicate == system.predicate)
        groups = _structure_body(body, exit_atom, constants, free)
        steps.append(_assemble_groups(groups))

    depth = 2 + 2 * period
    expansion, levels = _atom_levels(system, depth)
    body = tuple(a for a in expansion.body
                 if a.predicate != system.predicate)
    exit_atom = next(a for a in expansion.body
                     if a.predicate == system.predicate)
    levels[exit_atom] = depth
    groups = _structure_body(body, exit_atom, constants, free)
    iterated = _assemble_groups(groups, levels, shallow_max=period)
    steps.append(UnionOverK(iterated, start=1))
    return Steps(tuple(steps))


@dataclass(frozen=True)
class MagicStep:
    """One expansion of an ITERATIVE query's binding pass: bindings of
    ``entry`` (head variables), joined with ``atoms`` (those in their
    determined closure) and projected onto ``out`` (recursive-call
    variables), are the bindings at ``next_adornment``, whose own step
    is ``CompiledFormula.magic[successor]``."""

    next_adornment: Adornment
    entry: tuple[Variable, ...]
    atoms: tuple[Atom, ...]
    out: tuple[Variable, ...]
    successor: int


def _magic_steps(system: RecursionSystem, classification: Classification,
                 sequence: BindingSequence) -> tuple[MagicStep | None, ...]:
    """The step from each adornment of *sequence*; None where nothing
    stays bound, so the recursion below it is unrestricted."""
    rule = system.recursive
    states = sequence.states
    steps: list[MagicStep | None] = []
    for index, adornment in enumerate(states):
        successor = (index + 1 if index + 1 < len(states)
                     else sequence.prefix_length)
        next_adornment = states[successor]
        if not next_adornment:
            steps.append(None)
            continue
        entry = tuple(rule.head_variables[i] for i in sorted(adornment))
        closure = determined_closure(classification.graph, entry)
        steps.append(MagicStep(
            next_adornment, entry,
            tuple(a for a in rule.nonrecursive_atoms
                  if a.variable_set() & closure),
            tuple(rule.body_recursive_variables[i]
                  for i in sorted(next_adornment)),
            successor))
    return tuple(steps)


#: Suffix of the auxiliary recursion's predicate (cf. ``__exit``).
AUX_SUFFIX = "__aux"


@dataclass(frozen=True)
class AuxiliaryRecursion:
    """Example 9's split of an ITERATIVE system: P = E ∪ D × R.

    The recursive rule's ``detached`` atoms touch head variables but no
    variable of the recursive call, so every tuple the rule derives
    places a row of them at ``positions`` beside a row of R at the
    other head positions.  R, the projection of the rest of the body
    joined with the recursive call, is a recursion no query constant
    touches.  ``system`` holds R's rules: one exit rule per exit rule
    of P and one rule linear in R.
    """

    system: RecursionSystem
    detached: tuple[Atom, ...]
    positions: tuple[int, ...]

    @cached_property
    def name(self) -> str:
        """The name R's rows are kept under on a database: R's rules,
        which no parsed predicate can spell.  Every R's predicate is
        ``P__aux``, so two systems share R only when R's rules agree."""
        return " ".join(str(r) for r in (*self.system.exits,
                                         self.system.recursive.rule))

    def describe(self) -> str:
        """The answer assembly and R's rules, on one line."""
        detached = ", ".join(str(a) for a in self.detached)
        return (f"answers σE ∪ σ({detached}) × "
                f"{self.system.recursive.head}, where {self.name}")


def _auxiliary(system: RecursionSystem) -> AuxiliaryRecursion | None:
    """The auxiliary recursion R of *system*, None without a detached
    component.

    R's rules come from one symbolic unfolding of ``R(h) :- K, P(b)``
    (K the atoms that are not detached, h the head terms outside the
    detached positions): the call ``P(b)`` is resolved once against
    each exit rule, and once against the recursive rule, whose
    detached copy stays in the body while the rest of it is R again.
    A rule the loose parser accepts may leave a head variable in no
    body atom; its R is no valid recursion, and the plain fixpoint
    runs instead.
    """
    rule = system.recursive
    atoms = rule.nonrecursive_atoms
    head = rule.head.args
    call = rule.recursive_atom
    detached: set[int] = set()
    reached: set[Variable] = set()
    for members in connected_groups(atoms).values():
        found = frozenset().union(*(atoms[i].variable_set()
                                    for i in members))
        if found & set(head) and not found & call.variable_set():
            detached.update(members)
            reached |= found
    if not detached:
        return None
    parts = tuple(a for i, a in enumerate(atoms) if i in detached)
    kept = tuple(a for i, a in enumerate(atoms) if i not in detached)
    positions = tuple(i for i, term in enumerate(head) if term in reached)
    name = system.predicate + AUX_SUFFIX

    def aux(args: tuple) -> Atom:
        return Atom(name, tuple(term for i, term in enumerate(args)
                                if i not in positions))

    # the head of a renamed clause unifies with the call, whose
    # variables are distinct
    exits = []
    for exit_rule in system.exits:
        copy = rename_apart(exit_rule, rule.rule.variables)
        mgu = unify_atoms(copy.head, call)
        exits.append(apply_to_rule(mgu, Rule(aux(head), kept + copy.body)))
    copy = rename_apart(rule.rule, rule.rule.variables)
    mgu = unify_atoms(copy.head, call)
    copies = tuple(apply_to_atom(mgu, twin)
                   for body_atom, twin in zip(rule.rule.body, copy.body)
                   if body_atom in parts)
    linear = Rule(aux(head), kept + copies + (aux(call.args),))
    try:
        recursion = RecursionSystem(RecursiveRule(linear), tuple(exits))
    except RuleValidationError:
        return None
    return AuxiliaryRecursion(recursion, parts, positions)


@dataclass(frozen=True)
class CompiledFormula:
    """A query compiled against a classified recursion system: the
    plan it shows and what the compiled engine runs — ``stable``,
    ``expansions`` (BOUNDED: the :func:`to_nonrecursive` union) or
    ``magic`` (ITERATIVE: the step from each of ``binding.states``),
    and for an ITERATIVE system with a detached component the
    ``auxiliary`` recursion that replaces the fixpoint."""

    system: RecursionSystem
    classification: Classification
    adornment: Adornment
    strategy: Strategy
    plan: PlanNode
    transformation: StableTransformation | None
    stable: StableCompilation | None
    binding: BindingSequence
    notes: tuple[str, ...]
    expansions: tuple[Rule, ...] = ()
    magic: tuple[MagicStep | None, ...] = ()
    auxiliary: AuxiliaryRecursion | None = None

    @property
    def plan_text(self) -> str:
        """The plan in the paper's notation."""
        return render(self.plan)

    @property
    def query_form(self) -> str:
        """The adornment in ``d``/``v`` notation, e.g. ``dvv``."""
        return adornment_to_string(self.adornment, self.system.dimension)

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable view (for the CLI's --json output)."""
        arity = self.system.dimension
        return {
            "query_form": self.query_form,
            "formula_class": str(self.classification.formula_class),
            "strategy": str(self.strategy),
            "binding_sequence": self.binding.describe(arity),
            "persistent_positions": sorted(
                i + 1 for i in self.binding.persistent_positions),
            "plan": self.plan_text,
            "notes": list(self.notes),
        }

    def describe(self) -> str:
        """Multi-line description: class, strategy, bindings, plan."""
        arity = self.system.dimension
        lines = [
            f"query form: {self.system.predicate}({self.query_form})",
            f"class:      {self.classification.describe()}",
            f"strategy:   {self.strategy}",
            f"bindings:   {self.binding.describe(arity)}",
            f"plan:       {self.plan_text}",
        ]
        lines.extend(f"note:       {note}" for note in self.notes)
        return "\n".join(lines)


@dataclass(frozen=True)
class SystemCompilation:
    """What every query form of a classified system shares: the
    strategy, what it runs (``expansions``, ``stable`` and its
    ``transformation``, or ``auxiliary``) and the notes of every form."""

    system: RecursionSystem
    classification: Classification
    strategy: Strategy
    notes: tuple[str, ...] = ()
    expansions: tuple[Rule, ...] = ()
    transformation: StableTransformation | None = None
    stable: StableCompilation | None = None
    auxiliary: AuxiliaryRecursion | None = None


def compile_system(system: RecursionSystem,
                   classification: Classification | None = None
                   ) -> SystemCompilation:
    """What every query form of *system* shares, compiled once: its
    expansions, unfolding and stable factoring, or auxiliary recursion."""
    if classification is None:
        classification = classify(system)
    if classification.boundedness is Boundedness.BOUNDED:
        return SystemCompilation(
            system, classification, Strategy.BOUNDED,
            (f"bounded: rank ≤ {classification.rank_bound}; plan is a "
             f"finite union over exit depths 1.."
             f"{classification.rank_bound + 1}",),
            expansions=to_nonrecursive(system, classification))
    if classification.is_strongly_stable:
        return SystemCompilation(
            system, classification, Strategy.STABLE,
            stable=compile_stable(system, classification))
    if classification.is_transformable:
        transformation = to_stable(system, classification)
        return SystemCompilation(
            system, classification, Strategy.TRANSFORM,
            (f"unfolded {transformation.unfold_times}× (Theorem 2/4); "
             f"{EXIT_NAME} ranges over the "
             f"{len(transformation.system.exits)} exit expansions",),
            transformation=transformation,
            stable=compile_stable(transformation.system,
                                  transformation.classification))
    auxiliary = _auxiliary(system)
    return SystemCompilation(
        system, classification, Strategy.ITERATIVE,
        () if auxiliary is None else (auxiliary.describe(),),
        auxiliary=auxiliary)


def compile_query(system: RecursionSystem,
                  adornment: Adornment | str,
                  classification: (Classification | SystemCompilation
                                   | None) = None
                  ) -> CompiledFormula:
    """Compile a query form against *system*.

    *adornment* is either a frozenset of bound positions or the
    paper's ``"dvv"`` string notation.  *classification* may be the
    system's :func:`compile_system` result, which its forms share.

    >>> from ..datalog.parser import parse_system
    >>> s = parse_system(
    ...     "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).")
    >>> compiled = compile_query(s, "dvv")
    >>> compiled.strategy
    <Strategy.ITERATIVE: 'iterative'>
    """
    if isinstance(adornment, str):
        form, adornment = adornment, adornment_from_string(adornment)
        if len(form) != system.dimension:
            raise EvaluationError(
                f"query form {form!r} has {len(form)} position(s), but "
                f"{system.predicate} has arity {system.dimension}")
    if max(adornment, default=-1) >= system.dimension:
        raise EvaluationError(
            f"adornment mentions position {max(adornment) + 1} but the "
            f"predicate has arity {system.dimension}")
    shared = classification
    if not isinstance(shared, SystemCompilation):
        shared = compile_system(system, classification)
    sequence = binding_sequence(system.recursive, adornment)
    notes, magic = shared.notes, ()
    if shared.strategy is Strategy.BOUNDED:
        plan = bounded_plan(system, shared.expansions, adornment)
    elif shared.stable is not None:
        plan = stable_plan(shared.stable, adornment)
    else:
        plan = general_plan(system, adornment, sequence)
        magic = _magic_steps(system, shared.classification, sequence)
        if sequence.persistent_positions:
            positions = ", ".join(
                str(i + 1) for i in sorted(sequence.persistent_positions))
            notes = (f"query-dependently stable on positions "
                     f"{{{positions}}} (binding sequence "
                     f"{sequence.describe(system.dimension)})",) + notes
    return CompiledFormula(system, shared.classification, adornment,
                           shared.strategy, plan, shared.transformation,
                           shared.stable, sequence, notes,
                           shared.expansions, magic, shared.auxiliary)
