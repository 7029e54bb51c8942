"""Static join plans: compile a rule body once, execute set-at-a-time.

The conjunctive solver in :mod:`repro.engine.conjunctive` re-ranks
the body atoms and re-derives every access path *per binding*.  During
a fixpoint that work is identical for every delta tuple of a round —
the greedy most-bound-first order depends only on *which* variables
are bound, never on their values — so it can be done once per rule.

:func:`compile_plan` performs that static simulation: starting from
the variables bound at entry (the recursive call's arguments), it
repeatedly picks the most-bound atom (ties broken towards the smaller
relation, mirroring the dynamic heuristic) and records, per atom, the
hash-key columns, the intra-atom equality checks for repeated free
variables, and the columns that extend the binding layout.  The
resulting :class:`JoinPlan` is a straight-line program executed by
:mod:`repro.engine.setjoin` over whole delta relations at once.

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

from ..datalog.atoms import Atom
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
class JoinPlan:
    """An ordered join pipeline plus the output projection.

    ``entry_vars`` is the binding-tuple layout at entry (the distinct
    variables of the entry terms, in first-occurrence order); each step
    appends its ``new_positions`` columns; ``out_sources`` projects the
    final layout onto the head terms.  ``fused`` certifies (at compile
    time) that the last step and the projection collapse into one
    columnar probe — see :class:`FusedTail`.
    """

    entry_vars: tuple[Variable, ...]
    steps: tuple[JoinStep, ...]
    out_sources: tuple[Source, ...]
    fused: FusedTail | None = None

    @property
    def width(self) -> int:
        """Final binding-tuple width after all steps."""
        return len(self.entry_vars) + sum(
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
    """Argument positions bound under the current layout (mirrors the
    dynamic ``_boundness`` of the conjunctive solver)."""
    count = 0
    for term in atom.args:
        if isinstance(term, Constant) or term in bound:
            count += 1
    return count


def _compile(body: tuple[Atom, ...], entry_terms: tuple[Term, ...],
             out_terms: tuple[Term, ...],
             counts: Mapping[str, int], encode=None) -> JoinPlan:
    layout = entry_layout(entry_terms, encode)
    bound: dict[Variable, int] = {
        var: slot for slot, var in enumerate(layout.variables)}
    next_slot = len(bound)

    remaining = list(body)
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
    steps_t = tuple(steps)
    out_t = tuple(out_sources)
    return JoinPlan(layout.variables, steps_t, out_t,
                    _fused_tail(layout.variables, steps_t, out_t))


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
