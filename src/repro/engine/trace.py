"""Execution tracing: per-round spans for every engine (EXPLAIN ANALYZE).

:class:`EvaluationStats` summarises a whole run; a :class:`Trace`
records *how the run unfolded*: one :class:`RoundSpan` per fixpoint
round with the delta sizes flowing in and out, the join fan-out, the
hash tables built versus reused, and wall-clock time.  This is the
runtime feedback layer the classification work promises: the compiled
plan says what *should* happen, the trace shows what *did*.

Design:

* Engines accept an optional :class:`Tracer`.  ``trace=None`` (the
  default) is the disabled state and costs nothing — every tracing
  call in an engine is guarded by ``if trace is not None``, so the
  hot loops are untouched when tracing is off (property-tested:
  answers and stats are bit-identical either way).
* A :class:`Tracer` is single-use per evaluation: engines call
  :meth:`Tracer.begin` / :meth:`Tracer.begin_round` /
  :meth:`Tracer.end_round` / :meth:`Tracer.finish`; counters are read
  as *deltas* of the run's :class:`EvaluationStats` snapshots, so the
  per-round numbers agree with the end-of-run totals by construction.
* The finished :class:`Trace` renders as text
  (:meth:`Trace.render` — the body of ``explain_analyze``) and as a
  stable JSON document (:meth:`Trace.to_dict`, schema version
  :data:`TRACE_SCHEMA_VERSION`, checked by
  :func:`validate_trace_dict`) for offline analysis and regression
  tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

from .stats import EvaluationStats

#: Version of the JSON document emitted by :meth:`Trace.to_dict`.
#: Bump it whenever a field is added, removed or changes meaning; the
#: tier-1 suite validates every engine's output against
#: :func:`validate_trace_dict`, so drift cannot land silently.
#: Version 2 removed the worker-pool fields: ``workers`` on the
#: trace, ``shard_sizes``/``shard_wall_s`` on each round, and the
#: ``events`` lists (pool fallbacks were their only producer).
TRACE_SCHEMA_VERSION = 2


@dataclass
class RuleSpan:
    """One rule application inside a round (label → observed work)."""

    label: str
    duration_s: float = 0.0
    probes: int = 0
    derived: int = 0

    def to_dict(self) -> dict:
        return {"label": self.label, "duration_s": self.duration_s,
                "probes": self.probes, "derived": self.derived}


@dataclass
class RoundSpan:
    """One fixpoint round: sizes, work counters and timing.

    ``kind`` names what the round did — ``magic`` (the binding pass
    of top-down and of the compiled ITERATIVE strategy), ``exit``
    (round 0 of the delta engines), ``delta`` (a semi-naive round),
    ``round`` (one naive sweep), ``depth`` (stable chain step),
    ``expansion`` (one bounded exit expansion), ``product`` (Example
    9's answer assembly), ``seed`` (incremental differentiation).
    ``delta_out`` is always the number of genuinely new tuples the
    round contributed, so summing it over the trace of a full
    evaluation reproduces the final answer count (property-tested).
    """

    index: int
    kind: str
    delta_in: int = 0
    delta_out: int = 0
    duration_s: float = 0.0
    probes: int = 0
    derived: int = 0
    hash_builds: int = 0
    hash_reuses: int = 0
    rules: list[RuleSpan] = field(default_factory=list)
    #: engine-specific extras (e.g. the magic pass's binding count)
    detail: dict = field(default_factory=dict)

    @property
    def fan_out(self) -> float | None:
        """Derived bindings per incoming delta tuple (None at round 0)."""
        if self.delta_in <= 0:
            return None
        return self.derived / self.delta_in

    def to_dict(self) -> dict:
        return {
            "index": self.index, "kind": self.kind,
            "delta_in": self.delta_in, "delta_out": self.delta_out,
            "duration_s": self.duration_s,
            "probes": self.probes, "derived": self.derived,
            "hash_builds": self.hash_builds,
            "hash_reuses": self.hash_reuses,
            "fan_out": self.fan_out,
            "rules": [rule.to_dict() for rule in self.rules],
            "detail": dict(self.detail),
        }


@dataclass
class Trace:
    """A finished execution trace (what ``explain_analyze`` renders)."""

    engine: str
    predicate: str | None
    query: str | None
    answers: int
    total_s: float
    rounds: list[RoundSpan]
    meta: dict = field(default_factory=dict)

    @property
    def delta_total(self) -> int:
        """Sum of per-round new-tuple counts (== answers for full
        queries; the property suite asserts this per engine)."""
        return sum(span.delta_out for span in self.rounds)

    def to_dict(self) -> dict:
        """The stable JSON document (see ``docs/internals.md``)."""
        return {
            "version": TRACE_SCHEMA_VERSION,
            "engine": self.engine,
            "predicate": self.predicate,
            "query": self.query,
            "answers": self.answers,
            "total_s": self.total_s,
            "rounds": [span.to_dict() for span in self.rounds],
            "meta": dict(self.meta),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          ensure_ascii=False, sort_keys=False)

    def render(self) -> str:
        """Human-readable EXPLAIN ANALYZE table."""
        lines = [f"engine={self.engine}"
                 + (f" query={self.query}" if self.query else "")
                 + f" answers={self.answers}"
                 + f" rounds={len(self.rounds)}"
                 + f" total={_ms(self.total_s)}"]
        for key, value in sorted(self.meta.items()):
            lines.append(f"  {key}: {value}")
        for span in self.rounds:
            parts = [f"  {span.kind}[{span.index}]"]
            if span.delta_in:
                parts.append(f"in={span.delta_in}")
            parts.append(f"out={span.delta_out}")
            if span.fan_out is not None:
                parts.append(f"fan-out={span.fan_out:.2f}")
            parts.append(f"probes={span.probes}")
            parts.append(f"hash={span.hash_builds}b/"
                         f"{span.hash_reuses}r")
            parts.append(f"[{_ms(span.duration_s)}]")
            lines.append(" ".join(parts))
            detail = span.detail
            if "chain" in detail:
                head, call = detail["chain_anchors"]
                rows = detail["chain_rows"]
                lines.append(f"    · {head} —[{detail['chain']}]— {call}: "
                             f"{detail['chain_status']}"
                             + ("" if rows is None else f" rows={rows}")
                             + f" inputs={detail['chain_inputs']}")
            shown = [f"{key}={detail[key]}"
                     for key in ("components", "exists", "gate",
                                 "vector", "auxiliary_status")
                     if key in detail]
            if shown:
                lines.append(f"    · {' '.join(shown)}")
            for rule in span.rules:
                lines.append(f"    · {rule.label}: "
                             f"derived={rule.derived} "
                             f"probes={rule.probes} "
                             f"[{_ms(rule.duration_s)}]")
        return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}ms"


class Tracer:
    """Collects spans during one evaluation; ``None`` means disabled.

    Engines call the begin/end pairs around each round; counter fields
    are captured as deltas of the evaluation's
    :class:`EvaluationStats` snapshots.  Re-using a tracer for a new
    evaluation resets it (:meth:`begin`); the finished result lives in
    :attr:`trace` after :meth:`finish`.

    A **passive** tracer (``Tracer(passive=True)``) observes without
    steering: the session facade keeps answer-cache hits and the
    unseen-constant short-circuit enabled and records them as
    one-span traces (``meta.cache_hit`` / ``meta.unseen_constant``),
    so sampled serve-mode requests stay answer- and stats-identical
    to unsampled ones.  A non-passive tracer (the default, used by
    ``explain_analyze`` and ``--trace-json``) bypasses those caches
    to trace a real evaluation.
    """

    def __init__(self, passive: bool = False) -> None:
        self.passive = passive
        self.trace: Trace | None = None
        self._reset()

    def _reset(self) -> None:
        self._engine = ""
        self._predicate: str | None = None
        self._query: str | None = None
        self._meta: dict = {}
        self._spans: list[RoundSpan] = []
        self._current: RoundSpan | None = None
        self._current_rule: RuleSpan | None = None
        self._round_mark: tuple | None = None
        self._rule_mark: tuple | None = None
        self._started = 0.0

    # -- lifecycle -----------------------------------------------------

    def begin(self, engine: str, predicate: str | None = None,
              query: object | None = None,
              **meta: object) -> None:
        """Start (or restart) collecting for one evaluation."""
        self._reset()
        self.trace = None
        self._engine = engine
        self._predicate = predicate
        self._query = str(query) if query is not None else None
        self._meta = dict(meta)
        self._started = perf_counter()

    def finish(self, answers: int,
               stats: EvaluationStats | None = None) -> Trace:
        """Seal the trace; returns (and stores) the :class:`Trace`.

        The meta names what ran, read off *stats*: its ``strategy``
        and ``backend`` labels, when the run set them.
        """
        if self._current is not None:  # unterminated round (error path)
            self.end_round(0, stats)
        if stats is not None:
            for name in ("strategy", "backend"):
                if getattr(stats, name):
                    self._meta[name] = getattr(stats, name)
        self.trace = Trace(
            engine=self._engine, predicate=self._predicate,
            query=self._query, answers=answers,
            total_s=perf_counter() - self._started,
            rounds=self._spans, meta=self._meta)
        return self.trace

    # -- rounds --------------------------------------------------------

    @staticmethod
    def _snapshot(stats: EvaluationStats | None) -> tuple:
        if stats is None:
            return (0, 0, 0, 0, perf_counter())
        return (stats.probes, stats.derived, stats.hash_builds,
                stats.hash_lookups, perf_counter())

    def begin_round(self, kind: str, delta_in: int,
                    stats: EvaluationStats | None = None) -> None:
        """Open a round span; counters snapshot the stats object."""
        if self._current is not None:
            self.end_round(0, stats)
        self._current = RoundSpan(index=len(self._spans), kind=kind,
                                  delta_in=delta_in)
        self._round_mark = self._snapshot(stats)

    def end_round(self, delta_out: int,
                  stats: EvaluationStats | None = None,
                  **detail: object) -> None:
        """Close the open round span with its new-tuple count."""
        span, self._current = self._current, None
        if span is None:
            return
        probes, derived, builds, lookups, started = self._round_mark
        now_probes, now_derived, now_builds, now_lookups, now = \
            self._snapshot(stats)
        span.delta_out = delta_out
        span.duration_s = now - started
        span.probes = now_probes - probes
        span.derived = now_derived - derived
        span.hash_builds = now_builds - builds
        span.hash_reuses = max(
            0, (now_lookups - lookups) - (now_builds - builds))
        span.detail.update(detail)
        self._spans.append(span)

    def note(self, **detail: object) -> None:
        """Add *detail* to the open round span."""
        if self._current is not None:
            self._current.detail.update(detail)

    # -- per-rule sub-spans --------------------------------------------

    def begin_rule(self, label: str,
                   stats: EvaluationStats | None = None) -> None:
        """Open a rule sub-span inside the current round."""
        if self._current is None:
            return
        self._current_rule = RuleSpan(label=label)
        self._rule_mark = self._snapshot(stats)

    def end_rule(self, stats: EvaluationStats | None = None) -> None:
        rule, self._current_rule = self._current_rule, None
        if rule is None or self._current is None:
            return
        probes, derived, _, _, started = self._rule_mark
        now_probes, now_derived, _, _, now = self._snapshot(stats)
        rule.duration_s = now - started
        rule.probes = now_probes - probes
        rule.derived = now_derived - derived
        self._current.rules.append(rule)


# -- schema validation ----------------------------------------------------

_TRACE_FIELDS = {
    "version": int, "engine": str, "predicate": (str, type(None)),
    "query": (str, type(None)), "answers": int,
    "total_s": (int, float), "rounds": list, "meta": dict,
}

_ROUND_FIELDS = {
    "index": int, "kind": str, "delta_in": int, "delta_out": int,
    "duration_s": (int, float), "probes": int, "derived": int,
    "hash_builds": int, "hash_reuses": int,
    "fan_out": (int, float, type(None)), "rules": list,
    "detail": dict,
}

_RULE_FIELDS = {
    "label": str, "duration_s": (int, float), "probes": int,
    "derived": int,
}


def _check_fields(document: dict, spec: dict, where: str) -> None:
    missing = sorted(set(spec) - set(document))
    if missing:
        raise ValueError(f"{where}: missing fields {missing}")
    extra = sorted(set(document) - set(spec))
    if extra:
        raise ValueError(f"{where}: unknown fields {extra}")
    for name, types in spec.items():
        if not isinstance(document[name], types):
            raise ValueError(
                f"{where}.{name}: expected {types}, "
                f"got {type(document[name]).__name__}")


def validate_trace_dict(document: dict) -> None:
    """Raise ``ValueError`` unless *document* matches the trace schema.

    Strict on field *presence* and types (unknown top-level or
    per-round fields are rejected — that is the drift the tier-1
    trace tests exist to catch); ``detail``/``meta`` payloads are
    free-form by design.
    """
    _check_fields(document, _TRACE_FIELDS, "trace")
    if document["version"] != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"trace.version: expected {TRACE_SCHEMA_VERSION}, "
            f"got {document['version']}")
    for position, span in enumerate(document["rounds"]):
        where = f"rounds[{position}]"
        if not isinstance(span, dict):
            raise ValueError(f"{where}: expected dict")
        _check_fields(span, _ROUND_FIELDS, where)
        for rule_position, rule in enumerate(span["rules"]):
            _check_fields(rule, _RULE_FIELDS,
                          f"{where}.rules[{rule_position}]")
