"""The semi-naive delta loop, with a vectorised kernel for the hot shape.

:func:`run_delta_loop` is the one semi-naive loop of the fixpoint
engines: the semi-naive engine hands it the product of
:func:`exit_round` and it runs every delta round after that.  A round
pushes the whole delta relation through the recursive rule's compiled
:class:`~repro.engine.plan.JoinPlan`
(:func:`~repro.engine.setjoin.apply_rule`), keeps the rows the
caller's optional relevance filter admits, and subtracts the running
total.  :func:`magic_fixpoint` is the one way a query's binding
reaches into a recursion: a set-at-a-time pass over the magic steps it
is given, then the same exit round and delta loop, filtered by the
bindings the pass found.  The compiled engine's ITERATIVE strategy
runs it with the classified steps of its compiled formula, the
top-down engine with the steps it reads off the rule text.
:func:`answer_boundary` is where every evaluation engine's fixpoint
product becomes its answers.

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
identical counters, so callers never see a seam.  The first delta
round's trace detail names the first of those conditions that held
(``vector``; :func:`_declined`).  Only
``SemiNaiveEngine(backend="python")`` pins the tuple-set rounds: the
reference the kernel's parity tests compare against.

A loop with no relevance filter, whose exit rows are not sparse
against the relations its rule's compressed chain reads (the paper's
§3 Remark, found by the plan compiler:
:class:`~repro.engine.plan.CompressedChain`), first swaps the chain for
its composed step relation, built once per version of those relations
and cached on the database; both backends then probe it.  The 3-hop
rule ``A(x, m), B(m, n), C(n, z), P(z, y)`` thus runs as one fused
probe.
"""

from __future__ import annotations

from array import array

from ..datalog.errors import EvaluationError
from ..ra.answers import AnswerSet
from ..ra.database import Database
from .plan import CompressedChain, FusedTail, compile_plan
from .setjoin import apply_rule, compose_rows, execute_plan
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

#: A compressed chain is composed only when the loop's exit rows that
#: the chain can extend — whose call-anchor value has a row in the
#: chain's call-side atom — number at least one per this many rows the
#: chain reads.  The build joins the whole chain, while the plain plan
#: walks only what the exits reach: on hop3's relations, rebuilt before
#: each query, composing first pays between 10 and 100 exits on the
#: deepest level (one per 2,000 and per 200 of the 19,980 rows A, B and
#: C hold), and never for exits that reach nothing.
CHAIN_EXIT_SHARE = 64

#: A compressed chain's composition is declined as soon as one step of
#: its join would surface more than this many rows per row it reads,
#: before the step builds them.  The composition is kept, so without a
#: bound a hub of 1,000 rows in and 1,000 out would keep a million
#: pairs; checked after the build, it would hold them once (93 MB and
#: 0.65 s on 2 CPUs).  hop3's join surfaces 3 rows per row read.
CHAIN_FANOUT_LIMIT = 8


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

    def rows(self):
        """The rows, one int tuple each, for a caller that keeps them
        (a derived relation)."""
        return zip(*(vector.tolist() for vector in self._vectors))

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


def magic_fixpoint(database: Database, system, steps, query,
                   stats: EvaluationStats, trace: Tracer | None,
                   loop=None) -> set[tuple] | ColumnarTotal:
    """The fixpoint of *system* that answers the storage-space *query*:
    a ``magic`` round finds the bindings relevant to the query
    (:func:`_magic_bindings` over *steps*, a tuple of
    :class:`~repro.core.compile.MagicStep`), the exit round probes the
    exit rules with them (``σE``) and the delta loop keeps only the
    derived rows that match one of them.  A pass that reaches a step
    to no bound position (None) runs the unrestricted fixpoint.  Every
    derived row is a fact of the recursion; the caller filters the
    product by *query*.

    *loop* is the delta loop to run, :func:`run_delta_loop` when None;
    an engine passes the name its own module binds, so that whatever
    wraps that name (``benchmarks/e2e/spans.py``) sees the loop."""
    if trace is not None:
        trace.begin_round("magic", 0, stats)
    magic, unrestricted = _magic_bindings(database, steps, query, stats)
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

    total, delta = exit_round(
        database, system.exits, [((), [()])] if unrestricted else keyed,
        stats, trace)
    rule = system.recursive
    return (loop or run_delta_loop)(
        database, rule.nonrecursive_atoms, rule.recursive_atom.args,
        rule.head.args, total, delta, stats, trace,
        relevant=None if unrestricted else relevant)


def _magic_bindings(database: Database, steps, query,
                    stats: EvaluationStats
                    ) -> tuple[dict[frozenset, set[tuple]], bool]:
    """The relevant recursive-call bindings, per adornment, and whether
    the recursion below the query is unrestricted.

    *query* is in storage space.  Walks *steps* set-at-a-time: each
    round joins the new bound tuples at one adornment with its step's
    atoms in one rule application, producing the bound tuples at the
    one next adornment.  Finite: adornments × active domain tuples.  A
    step to the empty adornment (None) means the recursion below is
    unrestricted.  The deadline is checked once per round.
    """
    start = query.adornment
    magic: dict[frozenset, set[tuple]] = {}
    if not start:
        return magic, True
    deadline = stats.deadline
    frontier = {tuple(query.pattern[i] for i in sorted(start))}
    magic[start] = set(frontier)
    index = 0
    while frontier:
        if deadline is not None:
            deadline.check_time()
        step = steps[index]
        if step is None:
            return magic, True
        bucket = magic.setdefault(step.next_adornment, set())
        frontier = apply_rule(database, step.atoms, step.entry, step.out,
                              frontier, stats) - bucket
        bucket |= frontier
        index = step.successor
    return magic, False


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
    magic bindings' filter, :func:`magic_fixpoint`).

    Round 1 opens its trace span and compiles the plan (one counted
    miss on a cold cache).  Without *relevant*, a plan that carries a
    compressed chain may be swapped for the plan of its composed step
    (:func:`_compose`); only then is the certificate read off the
    compiled plan.  With no filter, an entry layout of two distinct
    variables and a single fused step, the rounds run vectorised on
    the numpy kernel when numpy imports, unless *backend* is
    ``"python"`` (the reference path).
    Anything else runs tuple-set rounds, *reusing* the compiled plan
    for round 1 and ``apply_rule`` — one counted plan-cache hit per
    round — thereafter, so every counter is the same on either path;
    the first round's trace detail says why (``vector``,
    :func:`_declined`).  ``stats.backend`` records what actually ran.
    """
    if not delta:
        return total
    if trace is not None:
        trace.begin_round("delta", len(delta), stats)
    body = tuple(body)
    entry_terms = tuple(entry_terms)
    out_terms = tuple(out_terms)
    plan = compile_plan(body, entry_terms, out_terms, database, stats)
    if plan.chain is not None and relevant is None:
        composed = _compose(database, plan.chain, delta, entry_terms,
                            stats, trace)
        if composed is not None:
            body = composed
            plan = compile_plan(body, entry_terms, out_terms, database,
                                stats)
    n_symbols = len(database.symbols)
    declined = _declined(backend, relevant, entry_terms, plan, n_symbols)
    if declined is not None:
        if trace is not None:
            trace.note(vector=declined)
        return _python_rounds(database, body, entry_terms, out_terms,
                              total, delta, stats, trace, plan, relevant)
    state = _NumpyState(total, delta, n_symbols)
    return _vector_rounds(database, body, entry_terms, out_terms,
                          state, plan.fused, stats, trace)


def _declined(backend: str, relevant, entry_terms: tuple, plan,
              n_symbols: int) -> str | None:
    """Why the numpy kernel does not run a loop, None when it does: the
    first condition that fails, in the order they are checked."""
    if backend == "python":
        return "python"
    if relevant is not None:
        return "filtered"
    if len(entry_terms) != 2 or not plan.layout.is_identity:
        return "layout"
    if plan.fused is None or len(plan.steps) != 1:
        return "steps"
    if not 0 < n_symbols <= (2 ** 63 - 1) // max(n_symbols, 1):
        return "domain"
    if _np is None:
        return "no numpy"
    return None


def _compose(database: Database, chain: CompressedChain, exits: set,
             entry_terms: tuple, stats: EvaluationStats,
             trace: Tracer | None):
    """*chain*'s body with the cluster probed as its composition, or
    None when the plain plan runs instead.

    The composition is one rule application of the cluster's atoms,
    projected on its two anchors and cached on *database* per version
    of the relations it reads (:meth:`Database.derived`).  It is
    skipped when the *exits* rows the chain can extend
    (:func:`_extending`) number fewer than one per
    :data:`CHAIN_EXIT_SHARE` rows it reads, and declined as soon as a
    step of its join would surface more than :data:`CHAIN_FANOUT_LIMIT`
    rows per row it reads (:func:`~repro.engine.setjoin.compose_rows`).
    Both depend on the data alone, and a build counts in
    ``hash_builds`` alone, so a query's probes and rounds do not depend
    on whether an earlier one built it; the first delta round's trace
    detail says what happened.
    """
    inputs = sum(database.count(body_atom.predicate)
                 for body_atom in chain.atoms)
    builds_before = database.hash_builds
    # no more exits extend than there are: read the call side's table
    # only when every exit extending would compose
    if len(exits) * CHAIN_EXIT_SHARE < inputs or (
            _extending(database, chain, exits, entry_terms)
            * CHAIN_EXIT_SHARE < inputs):
        rows, status = None, "skipped"
    else:
        rows, built = database.derived(
            chain.name, chain.inputs,
            lambda: compose_rows(database, chain.atoms, chain.anchors,
                                 CHAIN_FANOUT_LIMIT * inputs))
        status = ("declined" if rows is None
                  else "built" if built else "reused")
    stats.hash_builds += database.hash_builds - builds_before
    if trace is not None:
        trace.note(chain=chain.label,
                   chain_anchors=[str(anchor) for anchor in chain.anchors],
                   chain_rows=None if rows is None else len(rows),
                   chain_inputs=inputs, chain_status=status)
    return None if rows is None else chain.body


def _extending(database: Database, chain: CompressedChain, exits: set,
               entry_terms: tuple) -> int:
    """How many *exits* rows *chain* can extend: their value at the
    call anchor's entry position has a row in the first cluster atom
    that holds the anchor (read off that column's dense table)."""
    call = chain.anchors[1]
    at = entry_terms.index(call)
    side = next(body_atom for body_atom in chain.atoms
                if call in body_atom.args)
    table = database.dense_table(side.predicate, side.args.index(call))
    size = len(table)
    return sum(1 for row in exits if row[at] < size and table[row[at]])


def _python_rounds(database, body, entry_terms, out_terms, total,
                   delta, stats, trace, plan, relevant) -> set[tuple]:
    """Tuple-set rounds (round 1's span is already open and its plan
    already compiled)."""
    batch = plan.layout.batch(delta)
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
