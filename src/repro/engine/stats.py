"""Evaluation statistics shared by all engines.

The benches compare engines by work done, not only wall-clock:
``probes`` counts the stored rows that probes surface (join kernel
and conjunctive solver alike), ``derived`` the tuples produced (before
deduplication), ``rounds`` the fixpoint iterations.  ``delta_sizes``
records the per-round new-tuple counts, from which the *measured rank*
of a formula on a concrete database is read off (the quantity
Ioannidis's theorem bounds).

Every engine opens its stats with :func:`open_stats` and closes each
fixpoint round with :meth:`EvaluationStats.close_round`, the one place
that records the round, closes its trace span and enforces the
deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - trace imports this module
    from .trace import Tracer

#: Version of the JSON document emitted by ``repro run --stats-json``
#: (a list of :meth:`EvaluationStats.to_dict` snapshots).  Bump on any
#: field addition/removal/meaning change;
#: ``tests/test_trace_properties.py`` reconciles the ``delta_sizes`` of
#: every engine's stats with the trace of the same run.
#: Version 3 added ``truncated`` (row-budget abort flag).
#: Version 4 added ``backend`` (resolved execution backend) plus the
#: ``vector_batches``/``vector_rows`` counters of the vectorised
#: delta loop (see :mod:`repro.engine.vector`).
#: Version 5 removed the worker-pool fields ``workers``,
#: ``shard_counts``, ``shard_skew``, ``pool_round_trip_s``,
#: ``pool_fallbacks`` and ``sequential_rounds``; ``backend`` is
#: ``"numpy"`` or ``"python"``.
STATS_SCHEMA_VERSION = 5

#: The monotonically accumulating scalar fields of
#: :class:`EvaluationStats` — the ones whose snapshot difference is a
#: meaningful per-query increment (see :func:`delta_between`).
ACCUMULATING_FIELDS = (
    "rounds", "probes", "derived", "plan_cache_hits",
    "plan_cache_misses", "hash_builds", "hash_lookups",
    "answer_cache_hits", "vector_batches", "vector_rows",
)

#: The append-only list fields; their snapshot difference is the tail
#: of entries added between the two snapshots.
ACCUMULATING_LIST_FIELDS = ("delta_sizes", "batch_sizes")


def delta_between(before: dict, after: dict) -> dict:
    """The per-query increment between two ``to_dict`` snapshots.

    Scalar counters subtract; list counters return the appended tail.
    Non-accumulating fields (``engine``, ``backend``, ``answers``,
    ``measured_rank``, ``truncated``) carry *after*'s
    value — they describe the run, not an increment.  This is how a
    reused stats object feeds a metrics registry without double
    counting.
    """
    delta: dict = {}
    for name in ACCUMULATING_FIELDS:
        delta[name] = after[name] - before[name]
    for name in ACCUMULATING_LIST_FIELDS:
        delta[name] = after[name][len(before[name]):]
    for name in ("engine", "backend", "answers", "measured_rank",
                 "truncated"):
        delta[name] = after[name]
    return delta


@dataclass
class EvaluationStats:
    """Mutable counters filled in during one evaluation."""

    engine: str = ""
    #: resolved execution backend of the delta loop — ``"numpy"``
    #: when the vectorised kernel ran at least one round,
    #: ``"python"`` when the tuple-set loop did, ``""`` for engines
    #: that never consider the vector seam (naive, top-down)
    backend: str = ""
    rounds: int = 0
    probes: int = 0
    derived: int = 0
    answers: int = 0
    delta_sizes: list[int] = field(default_factory=list)
    #: join-plan compilations served from / missing the plan cache
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: hash tables built by the set-at-a-time kernel on our behalf
    hash_builds: int = 0
    #: hash-table fetches by the kernel (lookups - builds = reuses)
    hash_lookups: int = 0
    #: bindings entering the set-at-a-time kernel, one entry per batch
    batch_sizes: list[int] = field(default_factory=list)
    #: queries answered from the session's cross-query answer cache
    #: (the evaluation was skipped outright)
    answer_cache_hits: int = 0
    #: delta rounds executed by the vectorised kernel (one per round)
    vector_batches: int = 0
    #: rows emitted by the vectorised probe (before deduplication —
    #: the vector path's share of ``derived``)
    vector_rows: int = 0
    #: True when the run stopped at a round boundary because the
    #: deadline's row budget was exceeded — the answers returned are
    #: sound but incomplete (see :mod:`repro.engine.deadline`)
    truncated: bool = False
    #: optional :class:`~repro.engine.deadline.Deadline` checked by the
    #: engines at round boundaries.  A *carrier*, not a counter: it is
    #: excluded from :meth:`to_dict` (and therefore from the schema,
    #: the delta discipline and the JSON dumps) — it exists so budgets
    #: reach the round loops without changing any engine signature.
    deadline: object | None = field(default=None, repr=False,
                                    compare=False)

    def record_round(self, new_tuples: int) -> None:
        """Log one fixpoint round and its new-tuple count."""
        self.rounds += 1
        self.delta_sizes.append(new_tuples)

    def close_round(self, new: int, produced: int,
                    trace: Tracer | None = None, **detail) -> bool:
        """Close one fixpoint round at its commit point.

        Records the round's *new* tuples, closes the open trace span
        with *detail*, then enforces the deadline: the clock (or the
        cancel flag) raises, and a row budget exceeded by the
        *produced* rows sets ``truncated``.  True when the budget
        stopped the run — the caller returns what it holds.

        >>> from .deadline import Deadline
        >>> stats = EvaluationStats(deadline=Deadline(max_rows=2))
        >>> stats.close_round(2, 2), stats.close_round(1, 3)
        (False, True)
        >>> stats.delta_sizes, stats.truncated
        ([2, 1], True)
        """
        self.record_round(new)
        if trace is not None:
            trace.end_round(new, self, **detail)
        deadline = self.deadline
        if deadline is None:
            return False
        deadline.check_time()
        if deadline.out_of_rows(produced):
            self.truncated = True
            return True
        return False

    @property
    def measured_rank(self) -> int:
        """Index of the last round that produced a new tuple.

        Round 0 is the exit round (depth-0 tuples); the measured rank
        is the largest recursion depth that contributed a new tuple —
        0 when the exits already produced everything.
        """
        last = 0
        for index, size in enumerate(self.delta_sizes):
            if size > 0:
                last = index
        return last

    def record_batch(self, size: int) -> None:
        """Log one set-at-a-time batch and its binding count."""
        self.batch_sizes.append(size)

    def to_dict(self) -> dict:
        """Every counter as a JSON-ready dict (schema
        :data:`STATS_SCHEMA_VERSION`).

        This is the exchange format of ``repro run --stats-json`` and
        the snapshot half of the telemetry layer's snapshot-delta
        discipline (see :func:`delta_between` and
        :mod:`repro.metrics.instrument`): a metrics registry is fed
        the *difference* of two snapshots taken around one query, so
        registry totals reconcile with per-query stats by
        construction, exactly as the tracer's round counters do.
        """
        return {
            "engine": self.engine,
            "backend": self.backend,
            "rounds": self.rounds,
            "probes": self.probes,
            "derived": self.derived,
            "answers": self.answers,
            "delta_sizes": list(self.delta_sizes),
            "measured_rank": self.measured_rank,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "hash_builds": self.hash_builds,
            "hash_lookups": self.hash_lookups,
            "batch_sizes": list(self.batch_sizes),
            "answer_cache_hits": self.answer_cache_hits,
            "vector_batches": self.vector_batches,
            "vector_rows": self.vector_rows,
            "truncated": self.truncated,
        }

    def summary(self) -> str:
        """One-line rendering for bench output."""
        return (f"{self.engine}: rounds={self.rounds} "
                f"probes={self.probes} "
                f"derived={self.derived} answers={self.answers} "
                f"plans={self.plan_cache_hits}h/{self.plan_cache_misses}m "
                f"hash={self.hash_builds}b/{self.hash_lookups}l")


def open_stats(stats: EvaluationStats | None, engine: str,
               backend: str = "") -> EvaluationStats:
    """*stats* (a fresh object when None) opened for one evaluation:
    *engine* and *backend* named, ``truncated`` cleared.  The counters
    keep accumulating, so a reused object sums its runs."""
    if stats is None:
        stats = EvaluationStats()
    stats.engine = engine
    stats.backend = backend
    stats.truncated = False
    return stats
