"""Static join plans: compile a rule body once, execute set-at-a-time.

A solver that binds one tuple at a time would re-rank the body atoms
and re-derive every access path *per binding*.  During a fixpoint that
work is identical for every delta tuple of a round — the greedy
most-bound-first order depends only on *which* variables are bound,
never on their values — so it is done once per rule.

:func:`compile_plan` performs that static ranking: starting from
the variables bound at entry (the recursive call's arguments), it
repeatedly picks the most-bound atom (ties broken towards the smaller
relation) and records, per atom, the
hash-key columns, the intra-atom equality checks for repeated free
variables, and the columns that extend the binding layout.  The
resulting :class:`JoinPlan` is a straight-line program executed by
:mod:`repro.engine.setjoin` over whole delta relations at once.

A body is *split* into its variable-connected components, counting
the entry variables as bound, when one of them binds no output term or
reads no entry variable although the entry binds some (or, with
nothing bound at entry, when there are several): the components that
read an entry variable and bind an output term stay one pipeline, and
each other component runs on its own (:class:`Component`) — once per
batch, projected onto its own output terms, or, when it binds no output
term, as an existence check that stops at its first row.  The kernel
then emits their product: the paper's Cartesian product and existence
check.

A plan also records its body's compressed edge, when it has one
(:class:`CompressedChain`, the paper's §3 Remark): a cluster of atoms
between the entry and the output terms that a delta loop may probe as
one composed step relation.  The decision depends on the shape alone,
so it is made here, once, and cached with the plan.

Plans are *storage-space* artifacts: every constant appearing in the
body, the entry terms or the head is encoded through the database's
symbol table at compile time, so the executing kernel never touches a
raw value.

Plans are cached process-wide.  The cache key includes a coarse
log-scale fingerprint of the body relations' cardinalities so the
order adapts when a relation's size changes by orders of magnitude
(the naive engine's IDB grows between rounds) while a steady-state
semi-naive fixpoint hits the cache on every call — plus the symbol
table's process-unique token, so encoded constants can never leak
between two different code spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..datalog.atoms import Atom, connected_groups
from ..datalog.errors import EvaluationError
from ..datalog.terms import Constant, Term, Variable
from .stats import EvaluationStats

#: A value source: (True, constant-value) or (False, binding-layout slot).
Source = tuple[bool, object]

#: Plan-cache capacity; far above any realistic rule population, the
#: cap only guards against unbounded growth under generated workloads.
_CACHE_LIMIT = 4096

_PLAN_CACHE: dict[tuple, "JoinPlan"] = {}


@dataclass(frozen=True)
class JoinStep:
    """One hash join: probe *predicate* keyed on *key_positions*.

    ``key_sources`` supplies the probe key (constants and
    already-bound layout slots), ``same_free`` lists row-position pairs
    that must agree (a free variable repeated inside the atom), and
    ``new_positions`` are the row columns appended to the binding
    layout — the first occurrence of each newly bound variable.
    """

    predicate: str
    key_positions: tuple[int, ...]
    key_sources: tuple[Source, ...]
    same_free: tuple[tuple[int, int], ...]
    new_positions: tuple[int, ...]

    @property
    def key_is_all_vars(self) -> bool:
        """True when the probe key uses no constants (the fast path)."""
        return all(not is_const for is_const, _ in self.key_sources)

    @property
    def key_slots(self) -> tuple[int, ...]:
        """Layout slots feeding the key (valid when all-vars)."""
        return tuple(payload for is_const, payload in self.key_sources
                     if not is_const)


@dataclass(frozen=True)
class FusedTail:
    """The compile-time shape certificate of a fusable last probe.

    Present on a :class:`JoinPlan` when its final step probes exactly
    one bound slot, binds exactly one new column, and the head
    projects two variables of which exactly one is that new column —
    the shape of every linear recursion's delta rule.  The kernel then
    skips the intermediate extended binding and emits the projected
    output pair straight out of the probe, column-wise: *keep* is the
    layout slot carried through from the binding, *position* the probed
    row's emitted column, *new_first* which of the two comes first in
    the output row.  Detected once per plan here instead of per round
    in the kernel.
    """

    predicate: str
    key_position: int   # probed column of the stored relation
    slot: int           # binding-layout slot feeding the probe key
    position: int       # stored-row column the probe emits
    keep: int           # binding-layout slot of the carried column
    new_first: bool     # emitted column first (True) or second


@dataclass(frozen=True)
class CompressedChain:
    """A compressed edge of a delta rule (the paper's §3 Remark).

    ``atoms`` are two or more body atoms, connected by shared
    variables, whose variables meet the entry and output terms in
    exactly two ``anchors``: the first an output variable that is no
    entry variable (the head side), the second an entry variable that
    is no output variable (the recursive call's side).  Their join
    projected on the anchors is one binary step relation, composed once
    per version of its ``inputs`` under ``name``, a name no parsed
    predicate can take; ``body`` is the body with the cluster replaced
    by that one atom.  ``label`` concatenates the cluster's predicates
    in body order (``ABC``).
    """

    atoms: tuple[Atom, ...]
    anchors: tuple[Variable, Variable]
    label: str
    name: str
    body: tuple[Atom, ...]

    @property
    def inputs(self) -> tuple[str, ...]:
        """The relations the composition reads, each once, sorted."""
        return tuple(sorted({body_atom.predicate
                             for body_atom in self.atoms}))


def _chain_name(atoms: tuple[Atom, ...],
                anchors: tuple[Variable, Variable]) -> str:
    """The cluster with its variables numbered — ``$0`` the head
    anchor, ``$1`` the call anchor, the rest in order of appearance —
    so equal clusters of two rules share one composition; ``$`` and
    ``⋈`` occur in no parsed predicate."""
    numbers = {anchors[0]: 0, anchors[1]: 1}
    parts = []
    for body_atom in atoms:
        args = [f"${numbers.setdefault(term, len(numbers))}"
                if isinstance(term, Variable) else repr(term.value)
                for term in body_atom.args]
        parts.append(f"{body_atom.predicate}({', '.join(args)})")
    return "⋈".join(parts)


def _compressed_chain(body: tuple[Atom, ...],
                      entry_terms: tuple[Term, ...],
                      out_terms: tuple[Term, ...]
                      ) -> CompressedChain | None:
    """The first cluster of *body* that is a compressed edge between
    the output and the entry terms (see :class:`CompressedChain`), or
    None."""
    head = {term for term in out_terms if isinstance(term, Variable)}
    call = {term for term in entry_terms if isinstance(term, Variable)}
    for members in connected_groups(body).values():
        if len(members) < 2:
            continue
        atoms = tuple(body[i] for i in members)
        found = frozenset().union(*(a.variable_set() for a in atoms))
        on_head, on_call = found & head, found & call
        if len(on_head) != 1 or len(on_call) != 1 or on_head == on_call:
            continue
        anchors = (*on_head, *on_call)
        name = _chain_name(atoms, anchors)
        label = "".join(dict.fromkeys(a.predicate for a in atoms))
        first, *others = members
        rest = tuple(Atom(name, anchors) if i == first else body_atom
                     for i, body_atom in enumerate(body)
                     if i not in others)
        return CompressedChain(atoms, anchors, label, name, rest)
    return None


@dataclass(frozen=True)
class Component:
    """A component of a split body that runs apart from the pipeline.

    ``out_slots`` are the slots of its final binding that feed the
    output, in output order, and its ``steps`` join its atoms from the
    empty binding.  None marks an existence check, a component that
    binds no output term: its steps join from an entry binding, of
    which it reads the ``entry_slots``, and its last step only asks
    whether a row is there.
    """

    steps: tuple[JoinStep, ...]
    entry_slots: tuple[int, ...]
    out_slots: tuple[int, ...] | None


@dataclass(frozen=True)
class JoinPlan:
    """An ordered join pipeline plus the output projection.

    ``layout`` maps rows onto the binding tuples at entry (the distinct
    variables of the entry terms, in first-occurrence order — see
    :class:`EntryLayout`); each step appends its ``new_positions``
    columns; ``out_sources`` projects the final layout onto the head
    terms.  ``fused`` certifies (at compile time) that the last step
    and the projection collapse into one columnar probe — see
    :class:`FusedTail`.  ``chain`` is the body's compressed edge, when
    it has one: a delta loop may probe its composition instead (see
    :class:`CompressedChain`).

    ``parts`` counts the body's variable-connected components, the
    entry variables counted as bound.  ``components`` is empty when the
    steps carry the whole body.  Otherwise the body is split: the steps
    carry only the components that read an entry variable and bind an
    output term, and ``components`` lists the others in order of their
    first body atom.  The output then reads the final binding followed
    by each projecting component's ``out_slots`` columns.
    """

    layout: EntryLayout
    steps: tuple[JoinStep, ...]
    out_sources: tuple[Source, ...]
    fused: FusedTail | None = None
    chain: CompressedChain | None = None
    parts: int = 1
    components: tuple[Component, ...] = ()

    @property
    def width(self) -> int:
        """Final binding-tuple width after all steps."""
        return len(self.layout.variables) + sum(
            len(s.new_positions) for s in self.steps)


def _fused_tail(entry_vars: tuple, steps: tuple[JoinStep, ...],
                out_sources: tuple[Source, ...]) -> FusedTail | None:
    """The :class:`FusedTail` certificate for a plan shape, or None."""
    if not steps:
        return None
    step = steps[-1]
    if (step.same_free or not step.key_is_all_vars
            or len(step.key_positions) != 1
            or len(step.new_positions) != 1):
        return None
    if len(out_sources) != 2 or any(is_const for is_const, _
                                    in out_sources):
        return None
    width = len(entry_vars) + sum(len(s.new_positions) for s in steps)
    width_before = width - 1
    s0, s1 = out_sources[0][1], out_sources[1][1]
    if (s0 == width_before) == (s1 == width_before):
        return None  # neither (or both) outputs the new column
    new_first = s0 == width_before
    return FusedTail(predicate=step.predicate,
                     key_position=step.key_positions[0],
                     slot=step.key_slots[0],
                     position=step.new_positions[0],
                     keep=s1 if new_first else s0,
                     new_first=new_first)


@dataclass(frozen=True)
class EntryLayout:
    """How raw delta rows map onto a plan's entry binding tuples.

    ``take`` lists the row positions that feed the layout (first
    occurrence of each distinct variable); ``var_checks`` are
    row-position pairs that must agree (repeated entry variables);
    ``const_checks`` pin row positions to constants.  Rows failing a
    check derive nothing and are dropped: no binding of the entry terms
    matches them.
    """

    variables: tuple[Variable, ...]
    take: tuple[int, ...]
    var_checks: tuple[tuple[int, int], ...]
    const_checks: tuple[tuple[int, object], ...]

    @property
    def is_identity(self) -> bool:
        """True when rows pass through unchanged (the common case)."""
        return (not self.var_checks and not self.const_checks
                and self.take == tuple(range(len(self.take))))

    def batch(self, rows) -> list[tuple]:
        """Convert delta *rows* to entry binding tuples.

        *rows* are storage-space tuples (the kernel contract), so the
        identity layout is one list copy; a non-tuple row would fail
        loudly at the first binding extension.
        """
        if self.is_identity:
            return list(rows)
        out: list[tuple] = []
        for row in rows:
            if any(row[i] != row[j] for i, j in self.var_checks):
                continue
            if any(row[i] != v for i, v in self.const_checks):
                continue
            out.append(tuple(row[i] for i in self.take))
        return out


def entry_layout(entry_terms: Sequence[Term],
                 encode=None) -> EntryLayout:
    """The :class:`EntryLayout` for binding rows against *entry_terms*.

    *encode* maps constant values to their storage representation
    (``Database.encode_const``); rows handed to :meth:`EntryLayout
    .batch` are storage-space, so the pinned constants must be too.
    """
    variables: list[Variable] = []
    take: list[int] = []
    first_at: dict[Variable, int] = {}
    var_checks: list[tuple[int, int]] = []
    const_checks: list[tuple[int, object]] = []
    for position, term in enumerate(entry_terms):
        if isinstance(term, Constant):
            const_checks.append((position, term.value if encode is None
                                 else encode(term.value)))
        elif term in first_at:
            var_checks.append((first_at[term], position))
        else:
            first_at[term] = position
            variables.append(term)
            take.append(position)
    return EntryLayout(tuple(variables), tuple(take),
                       tuple(var_checks), tuple(const_checks))


def _static_boundness(atom: Atom, bound: Mapping[Variable, int]) -> int:
    """Argument positions bound under the current layout."""
    count = 0
    for term in atom.args:
        if isinstance(term, Constant) or term in bound:
            count += 1
    return count


def _order(atoms: Sequence[Atom], bound: dict[Variable, int],
           counts: Mapping[str, int], encode=None) -> tuple[JoinStep, ...]:
    """*atoms* as a left-deep pipeline from the variables of *bound*
    (variable → layout slot), most-bound atom first; *bound* gains
    every variable the steps bind."""
    next_slot = len(bound)
    remaining = list(atoms)
    steps: list[JoinStep] = []
    while remaining:
        # Tie-break on the *coarse* (log-scale) cardinality — the same
        # granularity as the cache fingerprint — so every database with
        # an equal fingerprint compiles the identical plan.  An exact
        # count here would let two databases share a cache entry (same
        # fingerprint) yet deserve different atom orders, making work
        # counters depend on which of them compiled first.
        best = max(range(len(remaining)),
                   key=lambda i: (
                       _static_boundness(remaining[i], bound),
                       -counts.get(remaining[i].predicate, 0).bit_length()))
        atom = remaining.pop(best)
        key_positions: list[int] = []
        key_sources: list[Source] = []
        same_free: list[tuple[int, int]] = []
        new_at: dict[Variable, int] = {}
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                key_positions.append(position)
                key_sources.append((True, term.value if encode is None
                                    else encode(term.value)))
            elif term in bound:
                key_positions.append(position)
                key_sources.append((False, bound[term]))
            elif term in new_at:
                same_free.append((new_at[term], position))
            else:
                new_at[term] = position
        new_positions = tuple(sorted(new_at.values()))
        for position in new_positions:
            variable = atom.args[position]
            assert isinstance(variable, Variable)
            bound[variable] = next_slot
            next_slot += 1
        steps.append(JoinStep(atom.predicate, tuple(key_positions),
                              tuple(key_sources), tuple(same_free),
                              new_positions))
    return tuple(steps)


def _compile(body: tuple[Atom, ...], entry_terms: tuple[Term, ...],
             out_terms: tuple[Term, ...],
             counts: Mapping[str, int], encode=None) -> JoinPlan:
    layout = entry_layout(entry_terms, encode)
    entry = layout.variables
    outputs = [term for term in dict.fromkeys(out_terms)
               if isinstance(term, Variable) and term not in entry]
    groups = list(connected_groups(body, frozenset(entry)).values())
    piped: set[int] = set()
    apart: list[tuple[list[Atom], list[Variable], list[Variable]]] = []
    for members in groups:
        atoms = [body[i] for i in members]
        found = frozenset().union(*(a.variable_set() for a in atoms))
        reads = [var for var in entry if var in found]
        binds = [var for var in outputs if var in found]
        # a lone group read from no entry variable is the batch's whole
        # join, as before any split
        if binds and (reads or (not entry and len(groups) == 1)):
            piped.update(members)
        else:
            apart.append((atoms, reads, binds))

    bound: dict[Variable, int] = {
        var: slot for slot, var in enumerate(entry)}
    steps = _order([a for i, a in enumerate(body) if i in piped], bound,
                   counts, encode)
    width = len(bound)
    components: list[Component] = []
    for atoms, reads, binds in apart:
        local = {} if binds else {
            var: slot for slot, var in enumerate(entry)}
        part = _order(atoms, local, counts, encode)
        for var in binds:
            bound[var] = width
            width += 1
        components.append(Component(
            part, tuple(entry.index(var) for var in reads),
            tuple(local[var] for var in binds) if binds else None))

    out_sources: list[Source] = []
    for term in out_terms:
        if isinstance(term, Constant):
            out_sources.append((True, term.value if encode is None
                                else encode(term.value)))
        elif term in bound:
            out_sources.append((False, bound[term]))
        else:
            raise EvaluationError(
                f"output term {term} is bound by neither the entry "
                f"binding nor the body — the rule is not range "
                f"restricted relative to its entry")
    out_t = tuple(out_sources)
    fused = (None if components
             else _fused_tail(layout.variables, steps, out_t))
    return JoinPlan(layout, steps, out_t, fused,
                    _compressed_chain(body, entry_terms, out_terms),
                    len(groups), tuple(components))


def compile_plan(body: Sequence[Atom], entry_terms: Sequence[Term],
                 out_terms: Sequence[Term],
                 database=None,
                 stats: EvaluationStats | None = None) -> JoinPlan:
    """The cached :class:`JoinPlan` for one rule application shape.

    *entry_terms* are the terms bound before the body runs (the
    recursive atom's arguments for a delta rule, empty for a full
    evaluation); *out_terms* the head's argument list.  *database*
    informs the atom-order tie-break via relation cardinalities and
    encodes the plan's constants into its code space.

    >>> from ..datalog.parser import parse_atom
    >>> from ..ra.database import Database
    >>> db = Database.from_dict({"A": [("a", "b")]})
    >>> body = (parse_atom("A(x, z)"),)
    >>> entry = parse_atom("P(z, y)").args
    >>> head = parse_atom("P(x, y)").args
    >>> plan = compile_plan(body, entry, head, db)
    >>> [s.predicate for s in plan.steps], plan.out_sources
    (['A'], ((False, 2), (False, 1)))
    """
    body = tuple(body)
    entry_terms = tuple(entry_terms)
    out_terms = tuple(out_terms)
    counts: dict[str, int] = {}
    encode = None
    token = 0
    if database is not None:
        for atom in body:
            counts[atom.predicate] = database.count(atom.predicate)
        encode = database.encode_const
        token = database.symbols.token
    # Coarse (log-scale) cardinality fingerprint: order only adapts to
    # order-of-magnitude shifts, so steady fixpoints always cache-hit.
    # The symbol-table token pins the plan's encoded constants to one
    # code space (a plan compiled without a database keeps raw
    # constants under token 0).
    fingerprint = tuple(sorted(
        (name, count.bit_length()) for name, count in counts.items()))
    key = (body, entry_terms, out_terms, fingerprint, token)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        if stats is not None:
            stats.plan_cache_hits += 1
        return plan
    if stats is not None:
        stats.plan_cache_misses += 1
    plan = _compile(body, entry_terms, out_terms, counts, encode)
    if len(_PLAN_CACHE) >= _CACHE_LIMIT:
        _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
    _PLAN_CACHE[key] = plan
    return plan


def plan_cache_size() -> int:
    """Number of cached plans (introspection for tests and benches)."""
    return len(_PLAN_CACHE)


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation)."""
    _PLAN_CACHE.clear()
