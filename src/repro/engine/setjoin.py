"""Set-at-a-time execution of compiled join plans.

Where :func:`repro.engine.conjunctive.solve_project` backtracks per
binding, :func:`execute_plan` pushes a whole batch of bindings (one
per delta tuple) through the plan's steps at once: each step probes a
hash table built per (relation, key-columns) and cached on the
:class:`~repro.ra.database.Database` against its version counter, so
a fixpoint pays the table build once and every later round is pure
dict lookups.

``stats.probes`` counts the rows surfaced by each probe — the same
quantity the conjunctive solver counts per :meth:`Database.match`
row — so probe-based comparisons stay meaningful between the engines
that batch through plans and the strategies that solve one binding
at a time.

Under dictionary encoding every binding tuple, probe key and stored
row is made of dense int codes, which unlocks a second access path:
single-column keys probe a plain Python *list* indexed by code
(:meth:`Database.dense_table`) instead of hashing — no ``__hash__``,
no ``__eq__``, one ``LIST_SUBSCR``.  :func:`probe_table` is the single
place that picks between the two: multi-column keys keep the dict
path.  Either way a (relation, key) table is built exactly once per
version.

The hot linear-recursion shape goes one step further and runs
*column-wise*: when a plan carries a
:class:`~repro.engine.plan.FusedTail` certificate, the final probe
reads a :meth:`Database.dense_column` view whose buckets hold only the
single emitted output column, assembling each projected output pair
without ever materialising the intermediate extended binding or
touching a full stored row.  Within the fixpoint, emitted blocks stay
row-major — every round feeds a row-hash dedup (``new - total``), so
rows are the native shape there — and the column representation
resumes at the answer boundary
(:class:`~repro.ra.answers.AnswerSet`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from ..datalog.atoms import Atom
from ..datalog.terms import Term
from ..ra.database import Database
from .plan import JoinPlan, JoinStep, compile_plan, entry_layout
from .stats import EvaluationStats

_NO_ROWS: tuple = ()


def _probe_key_getter(step: JoinStep):
    """A callable binding-tuple → probe key for a multi-column *step*
    (single-column keys probe :meth:`Database.dense_table` instead),
    matching the tuple keys of :meth:`Database.hash_table`."""
    if step.key_is_all_vars:
        return itemgetter(*step.key_slots)
    sources = step.key_sources
    return lambda binding: tuple(
        payload if is_const else binding[payload]
        for is_const, payload in sources)


def probe_table(database: Database, name: str,
                key_positions: tuple[int, ...]):
    """The access path the kernel probes for ``(name, key_positions)``:
    a code-indexed list for single-column keys, the key→rows dict
    otherwise.  One build per (relation, key) per version either
    way."""
    if len(key_positions) == 1:
        return database.dense_table(name, key_positions[0])
    return database.hash_table(name, key_positions)


def _dense_probe(dense: list, step: JoinStep, batch: list[tuple],
                 stats: EvaluationStats | None) -> list[tuple]:
    """Probe a code-indexed list table: ``dense[code]`` is the row
    bucket (the shared empty tuple when no row carries that code).
    Codes interned after the build are out of range — and provably in
    no stored row — so the bounds check doubles as the miss test."""
    size = len(dense)
    new_positions = step.new_positions
    same_free = step.same_free
    out: list[tuple] = []
    append = out.append
    probes = 0
    if step.key_is_all_vars:
        slot = step.key_slots[0]
        if len(new_positions) == 1 and not same_free:
            # The hot shape of every linear recursion: extend each
            # binding by one column, no intra-atom repeats.  Empty
            # buckets are () so the whole batch runs as one C-level
            # comprehension; every surfaced row is emitted, so the
            # probe count is the output length.
            position = new_positions[0]
            try:
                out = [binding + (row[position],)
                       for binding in batch
                       for row in dense[binding[slot]]]
            except IndexError:
                # a code interned after the build (out of range, in no
                # stored row): redo the batch with bounds checks
                out = []
                append = out.append
                for binding in batch:
                    code = binding[slot]
                    if code < size:
                        for row in dense[code]:
                            append(binding + (row[position],))
            if stats is not None:
                stats.probes += len(out)
            return out
        keys = (binding[slot] for binding in batch)
        pairs = zip(batch, keys)
    else:
        code = step.key_sources[0][1]  # single constant key
        fixed = dense[code] if code < size else _NO_ROWS
        pairs = ((binding, None) for binding in batch)
    for binding, code in pairs:
        if code is None:
            rows = fixed
        elif code < size:
            rows = dense[code]
        else:
            rows = _NO_ROWS
        if not rows:
            continue
        probes += len(rows)
        if same_free:
            rows = [row for row in rows
                    if all(row[i] == row[j] for i, j in same_free)]
        if len(new_positions) == 1:
            position = new_positions[0]
            for row in rows:
                append(binding + (row[position],))
        elif not new_positions:
            if rows:
                append(binding)
        else:
            for row in rows:
                append(binding + tuple(row[p] for p in new_positions))
    if stats is not None:
        stats.probes += probes
    return out


def _run_step(database: Database, step: JoinStep,
              batch: list[tuple],
              stats: EvaluationStats | None) -> list[tuple]:
    builds_before = database.hash_builds
    table = probe_table(database, step.predicate, step.key_positions)
    if stats is not None:
        stats.hash_builds += database.hash_builds - builds_before
        stats.hash_lookups += 1
    if type(table) is list:
        return _dense_probe(table, step, batch, stats)
    get_key = _probe_key_getter(step) if step.key_positions else None
    lookup = table.get
    new_positions = step.new_positions
    same_free = step.same_free
    if (get_key is None and not same_free and len(batch) == 1
            and not batch[0]):
        # Key-less scan from the empty binding — the shape of every
        # exit rule and every fixpoint-seeding first step.  When the
        # atom binds each column in order the output bindings ARE the
        # stored rows, so the whole step is one list copy.
        rows = lookup((), _NO_ROWS)
        if stats is not None:
            stats.probes += len(rows)
        if not rows:
            return []
        if not new_positions:
            return [()]
        if new_positions == tuple(range(len(rows[0]))):
            return list(rows)
        if len(new_positions) == 1:
            position = new_positions[0]
            return [(row[position],) for row in rows]
        emit = itemgetter(*new_positions)
        return [emit(row) for row in rows]
    out: list[tuple] = []
    append = out.append
    probes = 0
    emit = (itemgetter(*new_positions)
            if len(new_positions) > 1 else None)
    for binding in batch:
        rows = lookup(get_key(binding) if get_key else (), _NO_ROWS)
        if not rows:
            continue
        probes += len(rows)
        if same_free:
            rows = [row for row in rows
                    if all(row[i] == row[j] for i, j in same_free)]
        if len(new_positions) == 1:
            position = new_positions[0]
            for row in rows:
                append(binding + (row[position],))
        elif not new_positions:
            if rows:
                append(binding)
        else:
            for row in rows:
                append(binding + emit(row))
    if stats is not None:
        stats.probes += probes
    return out


def join_batch(database: Database, plan: JoinPlan,
               batch: Iterable[tuple],
               stats: EvaluationStats | None = None) -> list[tuple]:
    """All full binding tuples reachable from *batch* through *plan*."""
    current = batch if isinstance(batch, list) else list(batch)
    for step in plan.steps:
        if not current:
            return []
        current = _run_step(database, step, current, stats)
    return current


def _fused_final_rows(database: Database, plan: JoinPlan,
                      batch: list[tuple],
                      stats: EvaluationStats | None) -> list[tuple] | None:
    """Output rows of *plan* with the projection fused into the last
    probe, or None when the shape doesn't qualify.

    For the hot linear-recursion shape — last step probes one bound
    slot, binds one new column, and the head projects two variables of
    which exactly one is that new column — the intermediate extended
    binding tuple is never needed.  The shape is certified at compile
    time (:class:`~repro.engine.plan.FusedTail`), and the probe runs
    *column-wise*: :meth:`Database.dense_column` buckets hold only the
    emitted output column, so each output pair is assembled from the
    carried binding slot and the probed column value directly — no
    per-emitted-row ``row[position]`` indexing, no full-row buckets.
    Probe/derived accounting is
    identical to the unfused path (every surfaced column value emits
    exactly one output row), and the column view derives from the
    same counted dense-table build, so ``hash_builds`` is too.
    """
    spec = plan.fused
    if spec is None:
        return None
    for earlier in plan.steps[:-1]:
        if not batch:
            return []
        batch = _run_step(database, earlier, batch, stats)
    if not batch:
        return []
    builds_before = database.hash_builds
    view = database.dense_column(spec.predicate, spec.key_position,
                                 spec.position)
    if stats is not None:
        stats.hash_builds += database.hash_builds - builds_before
        stats.hash_lookups += 1
    slot, keep, new_first = spec.slot, spec.keep, spec.new_first
    try:
        if new_first:
            out = [(value, binding[keep])
                   for binding in batch
                   for value in view[binding[slot]]]
        else:
            out = [(binding[keep], value)
                   for binding in batch
                   for value in view[binding[slot]]]
    except IndexError:
        # a code interned after the build — out of range, in no row
        size = len(view)
        out = []
        append = out.append
        for binding in batch:
            code = binding[slot]
            if code < size:
                for value in view[code]:
                    append((value, binding[keep]) if new_first
                           else (binding[keep], value))
    if stats is not None:
        stats.probes += len(out)
    return out


def execute_plan(database: Database, plan: JoinPlan,
                 batch: Iterable[tuple],
                 stats: EvaluationStats | None = None) -> set[tuple]:
    """Project the join of *batch* through *plan* onto the head terms.

    Semantically identical to running ``solve_project`` once per batch
    binding and unioning — property-tested in
    ``tests/test_setjoin_properties.py``.
    """
    if not isinstance(batch, list):
        batch = list(batch)
    fused = _fused_final_rows(database, plan, batch, stats)
    if fused is not None:
        if stats is not None:
            stats.derived += len(fused)
        return set(fused)
    bindings = join_batch(database, plan, batch, stats)
    if stats is not None:
        stats.derived += len(bindings)
    if not bindings:
        return set()
    sources = plan.out_sources
    if all(not is_const for is_const, _ in sources):
        slots = tuple(payload for _, payload in sources)
        if slots == tuple(range(plan.width)):
            return set(bindings)  # head == layout: no projection
        if len(slots) == 1:
            slot = slots[0]
            return {(binding[slot],) for binding in bindings}
        getter = itemgetter(*slots)
        return set(map(getter, bindings))
    return {tuple(payload if is_const else binding[payload]
                  for is_const, payload in sources)
            for binding in bindings}


def apply_rule(database: Database, body: Sequence[Atom],
               entry_terms: Sequence[Term], out_terms: Sequence[Term],
               rows: Iterable[tuple],
               stats: EvaluationStats | None = None) -> set[tuple]:
    """One set-at-a-time rule application: bind *entry_terms* to each
    of *rows*, join through *body*, project onto *out_terms*.

    Equal to a ``solve_project`` call per row, unioned; the fixpoint
    engines run every exit rule, naive sweep and delta round through
    it.
    """
    plan = compile_plan(body, entry_terms, out_terms, database, stats)
    batch = entry_layout(tuple(entry_terms),
                         database.encode_const).batch(rows)
    if stats is not None:
        stats.record_batch(len(batch))
    return execute_plan(database, plan, batch, stats)
