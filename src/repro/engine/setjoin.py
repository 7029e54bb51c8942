"""Set-at-a-time execution of compiled join plans.

:func:`execute_plan` pushes a whole batch of bindings (one per delta
tuple) through the plan's steps at once: each step probes a
hash table built per (relation, key-columns) and cached on the
:class:`~repro.ra.database.Database` against its version counter, so
a fixpoint pays the table build once and every later round is pure
dict lookups.

``stats.probes`` counts the rows surfaced by each probe — the rows an
index nested-loop join in the same atom order examines — so every
engine and strategy counts its work in one unit.

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

A split plan (:attr:`~repro.engine.plan.JoinPlan.components`) runs the
paper's Cartesian product and existence check.  Its existence checks
run first, in body order, each once per batch or once per distinct
binding of the entry variables it reads, level by level: every step
but the last as the pipeline runs it, then the last step, which stops
at the first complete row (see :func:`_holding`).  The pipeline then
runs from the surviving bindings, each other component once from the
empty binding, projected onto its own output terms, and the output is
their product.  Any empty part ends the application there.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from ..datalog.atoms import Atom
from ..datalog.terms import Term
from ..ra.database import Database
from .plan import Component, JoinPlan, JoinStep, compile_plan
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


def _fetch(database: Database, step: JoinStep,
           stats: EvaluationStats | None):
    """*step*'s :func:`probe_table`, counted: a build, when the table
    had to be built, and one lookup."""
    builds_before = database.hash_builds
    table = probe_table(database, step.predicate, step.key_positions)
    if stats is not None:
        stats.hash_builds += database.hash_builds - builds_before
        stats.hash_lookups += 1
    return table


def _run_step(database: Database, step: JoinStep,
              batch: list[tuple],
              stats: EvaluationStats | None) -> list[tuple]:
    table = _fetch(database, step, stats)
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


def _buckets(table, step: JoinStep, batch: list[tuple]):
    """The rows of *table* (either access path of :func:`probe_table`)
    that *step* probes for each binding of *batch*, in batch order."""
    sources = step.key_sources
    if type(table) is list:
        ((is_const, payload),) = sources
        size = len(table)
        if is_const:
            return repeat(table[payload] if payload < size else _NO_ROWS,
                          len(batch))
        return (table[binding[payload]] if binding[payload] < size
                else _NO_ROWS for binding in batch)
    get = table.get
    if not sources:
        return repeat(get((), _NO_ROWS), len(batch))
    return map(get, map(_probe_key_getter(step), batch),
               repeat(_NO_ROWS))


def _surfaced(database: Database, step: JoinStep,
              batch: list[tuple]) -> int:
    """The rows *step*'s probe would surface for *batch* — what
    :func:`_run_step` counts as probes — read off the bucket sizes of
    the same table, without building a binding."""
    table = probe_table(database, step.predicate, step.key_positions)
    return sum(map(len, _buckets(table, step, batch)))


def _slot_getter(slots: tuple[int, ...]):
    """binding → the tuple of its *slots*."""
    if len(slots) == 1:
        slot = slots[0]
        return lambda binding: (binding[slot],)
    return itemgetter(*slots)


def _with_rows(database: Database, step: JoinStep, batch: list[tuple],
               stats: EvaluationStats | None) -> list[tuple]:
    """The bindings of *batch* under which *step*'s probe keeps a row
    (its table fetched and counted as :func:`_run_step` does)."""
    pairs = zip(batch, _buckets(_fetch(database, step, stats), step,
                                batch))
    same_free = step.same_free
    if not same_free:
        return [binding for binding, rows in pairs if rows]
    return [binding for binding, rows in pairs
            if any(all(row[i] == row[j] for i, j in same_free)
                   for row in rows)]


def _holding(database: Database, part: Component, batch: list[tuple],
             stats: EvaluationStats | None) -> list[tuple]:
    """The bindings of *batch* (not empty) under which the existence
    check *part* has a row.

    The check runs level by level, once per distinct tuple of the entry
    values it reads (once in all when it reads none): every step but
    the last as the pipeline runs it, then one pass of the last step,
    which asks only whether a row is there and counts one row for each
    tuple that has one, its first complete row.  So what a check counts
    follows from the rows each level holds, never from which of them
    comes first.
    """
    steps, slots = part.steps, part.entry_slots
    key_of = _slot_getter(slots) if slots else (lambda binding: ())
    if not slots:
        starts = batch[:1]
    elif len(steps) == 1:
        # one atom: a bucket read per binding, cheaper than finding
        # the distinct tuples first
        starts = batch
    else:
        starts = list({key_of(binding): binding
                       for binding in batch}.values())
    partial = _run_steps(database, steps[:-1], starts, stats, None)
    found = (_with_rows(database, steps[-1], partial, stats)
             if partial else [])
    held = set(map(key_of, found))
    if stats is not None:
        stats.probes += len(held)
    if starts is batch:  # one atom: *found* is the batch filtered
        return found
    if not slots:
        return batch if held else []
    return [binding for binding in batch if key_of(binding) in held]


def _run_steps(database: Database, steps: Sequence[JoinStep],
               batch: list[tuple], stats: EvaluationStats | None,
               limit: int | None) -> list[tuple] | None:
    """*batch* pushed through *steps*; with a *limit*, None as soon as
    a step would surface more rows than it, before the step builds
    any."""
    for step in steps:
        if not batch:
            return []
        if limit is not None and _surfaced(database, step, batch) > limit:
            return None
        batch = _run_step(database, step, batch, stats)
    return batch


def _fused_final_rows(database: Database, plan: JoinPlan,
                      batch: list[tuple], stats: EvaluationStats | None,
                      limit: int | None) -> set[tuple] | None:
    """Output rows of *plan*, whose shape is certified, with the
    projection fused into the last probe; with a *limit*, None as soon
    as a step would surface more rows than it (see :func:`_run_steps`).

    For the hot linear-recursion shape — last step probes one bound
    slot, binds one new column, and the head projects two variables of
    which exactly one is that new column — the intermediate extended
    binding tuple is never needed.  The shape is certified at compile
    time (:class:`~repro.engine.plan.FusedTail`), and the probe runs
    *column-wise*: :meth:`Database.dense_column` buckets hold only the
    emitted output column, so each output pair is assembled from the
    carried binding slot and the probed column value directly — no
    per-emitted-row ``row[position]`` indexing, no full-row buckets.
    The pairs go straight into the output set, and behind earlier steps
    (a multi-hop body, which reaches one binding by many paths) each
    (carried value, probe code) pair is expanded once: a repeat would
    only re-add pairs the set already holds, so the set and the order
    of its insertions are those of the expansion of every binding.
    Probe/derived accounting is
    identical to the unfused path (every surfaced column value emits
    exactly one output row), and the column view derives from the
    same counted dense-table build, so ``hash_builds`` is too.
    """
    spec = plan.fused
    batch = _run_steps(database, plan.steps[:-1], batch, stats, limit)
    if batch is None or (limit is not None and batch and _surfaced(
            database, plan.steps[-1], batch) > limit):
        return None
    if not batch:
        return set()
    builds_before = database.hash_builds
    view = database.dense_column(spec.predicate, spec.key_position,
                                 spec.position)
    if stats is not None:
        stats.hash_builds += database.hash_builds - builds_before
        stats.hash_lookups += 1
    # a code interned after the build is out of range, in no row
    size = len(view)
    code_of = itemgetter(spec.slot)
    pairs = zip(map(itemgetter(spec.keep), batch), map(code_of, batch))
    if len(plan.steps) > 1:
        pairs = dict.fromkeys(pairs)
    if spec.new_first:
        out = {(value, kept) for kept, code in pairs if code < size
               for value in view[code]}
    else:
        out = {(kept, value) for kept, code in pairs if code < size
               for value in view[code]}
    if stats is not None:
        try:
            emitted = sum(map(len, map(view.__getitem__,
                                       map(code_of, batch))))
        except IndexError:
            emitted = sum(len(view[code]) for code in map(code_of, batch)
                          if code < size)
        stats.probes += emitted
        stats.derived += emitted
    return out


def execute_plan(database: Database, plan: JoinPlan,
                 batch: Iterable[tuple],
                 stats: EvaluationStats | None = None) -> set[tuple]:
    """Project the join of *batch* through *plan* onto the head terms.

    Semantically identical to a nested-loop join of the body once per
    batch binding, unioned — property-tested in
    ``tests/test_setjoin_properties.py``.
    """
    if not isinstance(batch, list):
        batch = list(batch)
    return _execute(database, plan, batch, stats, None)


def compose_rows(database: Database, body: Sequence[Atom],
                 out_terms: Sequence[Term], limit: int) -> set[tuple] | None:
    """:func:`apply_rule` of *body* from the empty binding onto
    *out_terms*, or None as soon as one of its steps would surface more
    than *limit* rows, before that step builds any: the build of a
    compressed chain's composition, which is kept, so a hub's product
    is refused before it is held.  Counts into no stats."""
    plan = compile_plan(body, (), out_terms, database)
    return _execute(database, plan, [()], None, limit)


def _execute(database: Database, plan: JoinPlan, batch: list[tuple],
             stats: EvaluationStats | None,
             limit: int | None) -> set[tuple] | None:
    """:func:`execute_plan`, with :func:`_run_steps`'s *limit* (a
    composition's plan is never split)."""
    if plan.components:
        return execute_split(database, plan, batch, stats)[0]
    if plan.fused is not None:
        return _fused_final_rows(database, plan, batch, stats, limit)
    bindings = _run_steps(database, plan.steps, batch, stats, limit)
    if bindings is None:
        return None
    if stats is not None:
        stats.derived += len(bindings)
    return _project(bindings, plan.out_sources, plan.width)


def _project(rows: list[tuple], sources: tuple, width: int) -> set[tuple]:
    """*rows*, each *width* columns wide, projected on *sources*."""
    if not rows:
        return set()
    if not sources:
        return {()}
    if all(not is_const for is_const, _ in sources):
        slots = tuple(payload for _, payload in sources)
        if slots == tuple(range(width)):
            return set(rows)  # head == layout: no projection
        if len(slots) == 1:
            slot = slots[0]
            return {(row[slot],) for row in rows}
        return set(map(itemgetter(*slots), rows))
    return {tuple(payload if is_const else row[payload]
                  for is_const, payload in sources)
            for row in rows}


def execute_split(database: Database, plan: JoinPlan,
                  batch: list[tuple], stats: EvaluationStats | None
                  ) -> tuple[set[tuple], str | None]:
    """:func:`execute_plan` of a split *plan* (see the module
    docstring), and whether its existence checks ``"held"`` or
    ``"failed"`` (None when it has none, or the batch is empty)."""
    if not batch:
        return set(), None
    checked = None
    for part in plan.components:
        if part.out_slots is None:
            batch = _holding(database, part, batch, stats)
            checked = "held" if batch else "failed"
            if not batch:
                return set(), checked
    bindings = _run_steps(database, plan.steps, batch, stats, None)
    extras: list[tuple] = [()]
    for part in plan.components:
        if part.out_slots is not None and bindings and extras:
            found = _run_steps(database, part.steps, [()], stats, None)
            projected = set(map(_slot_getter(part.out_slots), found))
            extras = [left + right for left in extras
                      for right in projected]
    if stats is not None:
        stats.derived += len(bindings) * len(extras)
    if not extras:
        return set(), checked
    width = plan.width
    if extras == [()]:
        return _project(bindings, plan.out_sources, width), checked
    # the output's binding columns first, each distinct tuple of them
    # once, then the product with the other components' rows
    keep = sorted({payload for is_const, payload in plan.out_sources
                   if not is_const and payload < width})
    left = set(map(_slot_getter(tuple(keep)), bindings)) if keep else {()}
    sources = tuple(
        (True, payload) if is_const
        else (False, keep.index(payload) if payload < width
              else len(keep) + payload - width)
        for is_const, payload in plan.out_sources)
    return _project([row + extra for row in left for extra in extras],
                    sources, len(keep) + len(extras[0])), checked


def apply_rule(database: Database, body: Sequence[Atom],
               entry_terms: Sequence[Term], out_terms: Sequence[Term],
               rows: Iterable[tuple],
               stats: EvaluationStats | None = None) -> set[tuple]:
    """One set-at-a-time rule application: bind *entry_terms* to each
    of *rows*, join through *body*, project onto *out_terms*.

    Equal to a nested-loop join of *body* per row, unioned; the
    fixpoint engines run every exit rule, naive sweep, delta round and
    magic round through it, and provenance its witnesses.
    """
    plan = compile_plan(body, entry_terms, out_terms, database, stats)
    batch = plan.layout.batch(rows)
    if stats is not None:
        stats.record_batch(len(batch))
    return execute_plan(database, plan, batch, stats)
