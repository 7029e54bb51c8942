"""The semi-naive delta loop, with a vectorised kernel for the hot shape.

:func:`run_delta_loop` is the one semi-naive loop of the fixpoint
engines: the semi-naive engine and the compiled engine's ITERATIVE
strategy hand it the product of :func:`exit_round` and it runs every
delta round after that.  A round pushes the whole delta relation
through the recursive rule's compiled
:class:`~repro.engine.plan.JoinPlan`
(:func:`~repro.engine.setjoin.apply_rule`), keeps the rows the
caller's optional relevance filter admits, and subtracts the running
total.  :func:`answer_boundary` is where every evaluation engine's
fixpoint product becomes its answers.

The paper's thesis is that a formula's *class* dictates its cheapest
evaluation plan; for the linear-recursion classes the compiled plan is
a single fused probe per round (:class:`~repro.engine.plan.FusedTail`),
which makes the whole delta loop a dense-integer pipeline: under
dictionary encoding the frontier is two flat int columns, the stored
relation is a CSR adjacency (:meth:`Database.dense_column_csr`), and a
round is gather + concatenate + sorted-unique dedup — no Python tuple
is built until the single boundary conversion back into the engine's
answer set.

The kernel is numpy: ``np.repeat``/fancy-indexing gathers over
zero-copy ``np.frombuffer`` views of the CSR arrays, packed
``a * N + b`` int64 keys deduplicated by a sort plus one
``np.searchsorted`` per sorted run of the seen set
(:class:`_NumpyState`).  Without numpy every shape continues on the
tuple-set path, so ``auto`` resolves to the python loop
(``stats.backend == "python"``).

The kernel preserves the counting discipline of the tuple-set rounds
*exactly*: per round one plan-cache touch, one ``record_batch``, one
``hash_lookups`` tick and a ``hash_builds`` delta around the CSR
fetch, ``probes``/``derived`` equal to the rows the probe emits, and
the same trace spans and deadline checks at round boundaries.  The
loop chooses the kernel itself, from what it can observe: the
tuple-set rounds run instead without numpy, under a relevance filter,
for entry layouts other than two distinct variables, and for plans
whose shape the certificate rejects (multi-step bodies), with
identical counters, so callers never see a seam.  Only
``SemiNaiveEngine(backend="python")`` pins the tuple-set rounds: the
reference the kernel's parity tests compare against.
"""

from __future__ import annotations

from array import array

from ..datalog.errors import EvaluationError
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .plan import FusedTail, compile_plan, entry_layout
from .setjoin import apply_rule, execute_plan
from .stats import EvaluationStats
from .trace import Tracer

try:  # optional dependency: ``pip install repro[vector]``
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-less legs
    _np = None

#: True when the numpy kernel can run in this process.
HAVE_NUMPY = _np is not None

#: The recognised ``backend=`` values: ``auto`` prefers the vectorised
#: kernel with per-shape fallback, ``python`` pins the tuple-set rounds
#: (the reference path of the kernel's parity tests).
BACKENDS = ("auto", "python")


def numpy_version() -> str | None:
    """The importable numpy's version string, None when absent
    (surfaced by ``repro --version`` and ``repro_build_info``)."""
    return _np.__version__ if _np is not None else None


def validate_backend(backend: str) -> str:
    """*backend* verbatim, or raise on an unrecognised name."""
    if backend not in BACKENDS:
        raise EvaluationError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    return backend


# -- round kernels --------------------------------------------------------


class ColumnarTotal:
    """The numpy kernel's fixpoint product: the completed total as
    per-column flat int64 vectors, *distinct rows by construction*
    (split out of the sorted packed-key seen-set).

    :func:`answer_boundary` keeps this shape columnar end-to-end:
    query constants filter by vector mask (:meth:`filter`), ``len``
    never builds a row, and the columns go straight to
    :meth:`~repro.ra.answers.AnswerSet.from_columns` — the single
    boundary conversion the module docstring promises happens lazily,
    only when someone exercises row semantics.
    """

    __slots__ = ("_vectors",)

    def __init__(self, vectors: tuple) -> None:
        self._vectors = vectors

    def __len__(self) -> int:
        return int(self._vectors[0].size) if self._vectors else 0

    def filter(self, query) -> "ColumnarTotal":
        """The rows matching *query*'s (storage-encoded) constants —
        one boolean mask per bound position, no row materialised."""
        if query is None:
            return self
        mask = None
        for position, code in enumerate(query.pattern):
            if code is None:
                continue
            hit = self._vectors[position] == code
            mask = hit if mask is None else mask & hit
        if mask is None:
            return self
        return ColumnarTotal(tuple(vector[mask]
                                   for vector in self._vectors))

    def columns(self) -> tuple:
        """The ``array('q')`` view :meth:`AnswerSet.from_columns`
        consumes — one buffer copy per column, no per-row objects."""
        columns = []
        for vector in self._vectors:
            column = array("q")
            column.frombytes(_np.ascontiguousarray(
                vector, dtype=_np.int64).tobytes())
            columns.append(column)
        return tuple(columns)


class _NumpyState:
    """Frontier + seen-set state of the numpy kernel.

    The frontier is a pair of int64 columns.  The seen set holds
    packed ``a * N + b`` keys, where *N* is the symbol-table size at
    loop entry (codes are dense, so the packing is injective and
    ``N**2`` fits int64 for any realistic dictionary —
    :func:`run_delta_loop` checks and falls back otherwise).  It is
    kept as sorted, disjoint runs, each more than twice the size of
    the next: a round's fresh keys become a new run and merge into
    their neighbour while it is at most twice their size.  Each key
    is thus merged O(log T) times, where one sorted vector re-sorted
    every round would cost O(T log T) per round on a deep recursion.
    """

    def __init__(self, total: set, delta: set, n_symbols: int) -> None:
        self._n = n_symbols
        self._runs: list = []
        self._size = 0
        self._add_run(_np.sort(_np.fromiter(
            (a * n_symbols + b for a, b in total),
            dtype=_np.int64, count=len(total))))
        self._delta_a = _np.fromiter((row[0] for row in delta),
                                     dtype=_np.int64, count=len(delta))
        self._delta_b = _np.fromiter((row[1] for row in delta),
                                     dtype=_np.int64, count=len(delta))

    @property
    def n_delta(self) -> int:
        return int(self._delta_a.size)

    @property
    def total_size(self) -> int:
        return self._size

    def _add_run(self, keys) -> None:
        """Add sorted *keys*, disjoint from every run, as a new run."""
        if not keys.size:
            return
        runs = self._runs
        runs.append(keys)
        self._size += int(keys.size)
        while len(runs) > 1 and runs[-2].size <= 2 * runs[-1].size:
            merged = _np.concatenate((runs[-2], runs.pop()))
            # the stable sort finds the two sorted halves and merges
            # them in linear time, where quicksort starts over
            merged.sort(kind="stable")
            runs[-1] = merged

    def _unseen(self, keys):
        """The sorted *keys* that lie in no run."""
        for run in self._runs:
            at = _np.searchsorted(run, keys)
            _np.minimum(at, run.size - 1, out=at)
            keys = keys[run[at] != keys]
        return keys

    def round(self, spec: FusedTail, csr: tuple) -> tuple[int, int]:
        """One vectorised round; returns (rows emitted, fresh rows)."""
        values, offsets = csr
        vals = _np.frombuffer(values, dtype=_np.int64)
        offs = _np.frombuffer(offsets, dtype=_np.int64)
        n_buckets = offs.size - 1
        columns = (self._delta_a, self._delta_b)
        probe = columns[spec.slot]
        carry = columns[spec.keep]
        # Codes interned after the CSR build are out of range and in
        # no stored row — mask them to empty buckets (the vector twin
        # of the row path's IndexError slow lane).
        valid = probe < n_buckets
        safe = _np.where(valid, probe, 0)
        starts = offs[safe]
        counts = _np.where(valid, offs[safe + 1] - starts, 0)
        emitted = int(counts.sum())
        if emitted:
            # CSR multi-gather: for frontier row i, indices
            # starts[i] .. starts[i]+counts[i] into the value vector.
            ends = _np.cumsum(counts)
            index = (_np.arange(emitted, dtype=_np.int64)
                     - _np.repeat(ends - counts, counts)
                     + _np.repeat(starts, counts))
            new_column = vals[index]
            carried = _np.repeat(carry, counts)
            if spec.new_first:
                packed = new_column * self._n + carried
            else:
                packed = carried * self._n + new_column
            # sorted-unique by hand: np.unique pays an order of
            # magnitude over the raw sort for the bookkeeping this
            # loop never uses (inverse/index/count machinery)
            packed.sort()
            keep = _np.empty(packed.size, dtype=bool)
            keep[0] = True
            _np.not_equal(packed[1:], packed[:-1], out=keep[1:])
            fresh = self._unseen(packed[keep])
            self._add_run(fresh)
        else:
            fresh = _np.empty(0, dtype=_np.int64)
        self._delta_a = fresh // self._n
        self._delta_b = fresh % self._n
        return emitted, int(fresh.size)

    def finalize(self) -> ColumnarTotal:
        """The completed total, still columnar: the seen runs sorted
        into one key vector and split back into their two code
        columns.  No row tuple is built here — the answer boundary
        decides lazily whether anyone needs one
        (:class:`ColumnarTotal`)."""
        seen = (self._runs[0] if len(self._runs) == 1
                else _np.sort(_np.concatenate(self._runs)))
        first, second = _np.divmod(seen, self._n)
        return ColumnarTotal((first, second))


# -- the evaluation frame ------------------------------------------------


def exit_round(database: Database, exits, bindings,
               stats: EvaluationStats,
               trace: Tracer | None) -> tuple[set, set]:
    """Round 0 over the exit rules: ``(total, delta)``.

    *bindings* lists ``(head positions, rows)`` pairs; every exit rule
    is applied once per pair, its head terms at those positions bound
    to the rows.  ``((), [()])`` reads each exit relation whole; the
    compiled engine's magic bindings give ``σE``.  A row budget spent
    here leaves the delta empty, so the loop after it stops at once.
    """
    if trace is not None:
        trace.begin_round("exit", 0, stats)
    total: set[tuple] = set()
    for position, rule in enumerate(exits):
        if trace is not None:
            trace.begin_rule(f"exit[{position}]: {rule}", stats)
        head = rule.head.args
        for positions, rows in bindings:
            total |= apply_rule(database, rule.body,
                                tuple(head[i] for i in positions), head,
                                rows, stats)
        if trace is not None:
            trace.end_rule(stats)
    if stats.close_round(len(total), len(total), trace):
        return total, set()
    return total, set(total)


def answer_boundary(total, query, database: Database,
                    stats: EvaluationStats,
                    trace: Tracer | None) -> AnswerSet:
    """Every evaluation engine's answers: *total* (a row set, or the
    numpy kernel's :class:`ColumnarTotal`) filtered by the
    storage-space *query* (None keeps every row), counted into
    ``stats.answers``, the trace sealed, and the rows wrapped as a
    lazy :class:`~repro.ra.answers.AnswerSet` — column-first from the
    kernel, so no row tuple is built here."""
    columnar = isinstance(total, ColumnarTotal)
    if columnar:
        answers = total.filter(query)
    else:
        answers = frozenset(total) if query is None else query.filter(total)
    stats.answers = len(answers)
    if trace is not None:
        trace.finish(len(answers), stats)
    if columnar:
        return AnswerSet.from_columns(answers.columns(), database.symbols)
    return AnswerSet(answers, database.symbols)


# -- the delta loop -------------------------------------------------------


def run_delta_loop(database: Database, body, entry_terms, out_terms,
                   total: set, delta: set, stats: EvaluationStats,
                   trace: Tracer | None,
                   backend: str = "auto",
                   relevant=None) -> set[tuple] | ColumnarTotal:
    """Run the semi-naive delta loop to fixpoint; the completed total
    (a plain row set, or — from the numpy kernel — a
    :class:`ColumnarTotal` the answer boundary consumes column-first).

    *total* and *delta* hold the exit round's rows (storage space);
    each round binds *entry_terms* to the delta rows, joins *body* and
    projects onto *out_terms*.  *relevant*, when given, is a predicate
    on derived rows: only the rows it admits enter the fixpoint (the
    compiled engine's binding filter).

    Round 1 opens its trace span and compiles the plan (one counted
    miss on a cold cache); only then is the certificate read off the
    compiled plan.  With no filter, an entry layout of two distinct
    variables and a single fused step, the rounds run vectorised on
    the numpy kernel when numpy imports, unless *backend* is
    ``"python"`` (the reference path).
    Anything else runs tuple-set rounds, *reusing* the compiled plan
    for round 1 and ``apply_rule`` — one counted plan-cache hit per
    round — thereafter, so every counter is the same on either path.
    ``stats.backend`` records what actually ran.
    """
    if not delta:
        return total
    if trace is not None:
        trace.begin_round("delta", len(delta), stats)
    body = tuple(body)
    entry_terms = tuple(entry_terms)
    out_terms = tuple(out_terms)
    plan = compile_plan(body, entry_terms, out_terms, database, stats)
    layout = entry_layout(entry_terms, database.encode_const)
    n_symbols = len(database.symbols)
    certified = (
        backend != "python" and relevant is None
        and len(entry_terms) == 2 and layout.is_identity
        and plan.fused is not None and len(plan.steps) == 1
        and 0 < n_symbols <= (2 ** 63 - 1) // max(n_symbols, 1))
    if not certified or _np is None:
        return _python_rounds(database, body, entry_terms, out_terms,
                              total, delta, stats, trace, plan, layout,
                              relevant)
    state = _NumpyState(total, delta, n_symbols)
    return _vector_rounds(database, body, entry_terms, out_terms,
                          state, plan.fused, stats, trace)


def _python_rounds(database, body, entry_terms, out_terms, total,
                   delta, stats, trace, plan, layout,
                   relevant) -> set[tuple]:
    """Tuple-set rounds (round 1's span is already open and its plan
    already compiled)."""
    batch = layout.batch(delta)
    stats.record_batch(len(batch))
    new = execute_plan(database, plan, batch, stats)
    while True:
        delta = new - total
        if relevant is not None:
            delta = {row for row in delta if relevant(row)}
        total |= delta
        if stats.close_round(len(delta), len(total), trace) or not delta:
            return total
        if trace is not None:
            trace.begin_round("delta", len(delta), stats)
        new = apply_rule(database, body, entry_terms, out_terms, delta,
                         stats)


def _vector_rounds(database, body, entry_terms, out_terms, state,
                   spec, stats, trace) -> ColumnarTotal:
    """Certified rounds on the numpy state (round 1's span is open)."""
    while True:
        stats.record_batch(state.n_delta)
        builds_before = database.hash_builds
        csr = database.dense_column_csr(spec.predicate,
                                        spec.key_position,
                                        spec.position)
        stats.hash_builds += database.hash_builds - builds_before
        stats.hash_lookups += 1
        emitted, fresh = state.round(spec, csr)
        stats.probes += emitted
        stats.derived += emitted
        stats.vector_batches += 1
        stats.vector_rows += emitted
        if stats.close_round(fresh, state.total_size, trace) or not fresh:
            break
        if trace is not None:
            trace.begin_round("delta", state.n_delta, stats)
        # The tuple-set rounds re-enter ``apply_rule`` every round, so
        # rounds >= 2 are counted plan-cache hits; touch the cache the
        # same way to keep the counters bit-identical.
        compile_plan(body, entry_terms, out_terms, database, stats)
    stats.backend = "numpy"
    return state.finalize()
