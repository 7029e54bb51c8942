"""A dependency-free, thread-safe metrics registry.

The service layer (``repro serve``) and the session facade need
longitudinal signals — query rates per engine and formula class,
latency and answer-count distributions, cache hit ratios — that
outlive any single evaluation.  :class:`EvaluationStats` is
per-evaluation and :class:`~repro.engine.trace.Trace` is per-query;
this module is the third signal: process-lifetime aggregates.

Three metric kinds, modelled on the Prometheus data model:

* :class:`Counter` — monotone accumulator (``inc``);
* :class:`Gauge` — point-in-time value (``set``/``inc``/``dec``);
* :class:`Histogram` — observation distribution over *fixed log-scale
  buckets*; buckets are half-open intervals ``(lower, upper]`` and
  rendered cumulatively under the standard ``le`` label.

Every metric may carry a label set (``engine=``, ``formula_class=``,
``predicate=`` …).  Label cardinality is capped per metric
(:class:`LabelCardinalityError` past the cap) so an unbounded label
value — say, a user-supplied query string — cannot grow the registry
without limit.

All mutation goes through one lock per registry, so concurrent
increments from serving threads land exactly (tested with 8 threads).
The disabled state is ``registry=None`` at every instrumentation
site — identical to the ``trace=None`` discipline — so the engines'
hot loops never see the lock.

Exposition formats:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  format (``# HELP``/``# TYPE`` plus one sample line per series);
* :meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.render_json` — a JSON document for
  ``GET /stats`` and offline tooling;
* :func:`parse_prometheus_text` — a minimal parser for the text
  format, used by the round-trip tests and the CI wire smoke.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter", "Gauge", "Histogram", "LabelCardinalityError",
    "MetricError", "MetricsRegistry", "DEFAULT_BUCKETS",
    "parse_prometheus_text",
]

#: Default histogram buckets: a fixed log scale, half-decade steps
#: from 100µs to 100s — wide enough for both query latencies and
#: answer counts without per-metric tuning.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 2), 10) for exponent in range(-8, 5))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric declaration or use."""


class LabelCardinalityError(MetricError):
    """A metric exceeded its configured number of label sets."""


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


class _Metric:
    """Common machinery: label validation, child series, rendering."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help_text: str, label_names: tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label) or label == "le":
                raise MetricError(
                    f"invalid label name {label!r} on {name!r}")
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._registry = registry
        self._lock = registry._lock
        #: label-value tuple → per-series state
        self._series: dict[tuple[str, ...], object] = {}

    # -- label handling ------------------------------------------------

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels "
                f"{list(self.label_names)}, got {sorted(labels)}")
        return tuple(str(labels[name]) for name in self.label_names)

    def _state(self, labels: Mapping[str, object]) -> object:
        """The series state for a label set, created under the lock."""
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            if len(self._series) >= self._registry.max_label_sets:
                raise LabelCardinalityError(
                    f"{self.name}: more than "
                    f"{self._registry.max_label_sets} label sets "
                    f"(runaway label value?)")
            state = self._new_state()
            self._series[key] = state
        return state

    def _new_state(self) -> object:
        raise NotImplementedError

    # -- exposition ----------------------------------------------------

    def _label_text(self, key: tuple[str, ...],
                    extra: str = "") -> str:
        pairs = [f'{name}="{_escape_label_value(value)}"'
                 for name, value in zip(self.label_names, key)]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def render(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key in sorted(self._series):
            lines.extend(self._render_series(key, self._series[key]))
        return lines

    def _render_series(self, key: tuple[str, ...],
                       state: object) -> list[str]:
        raise NotImplementedError

    def snapshot_series(self) -> list[dict]:
        out = []
        for key in sorted(self._series):
            entry: dict = {"labels": dict(zip(self.label_names, key))}
            entry.update(self._snapshot_state(self._series[key]))
            out.append(entry)
        return out

    def _snapshot_state(self, state: object) -> dict:
        raise NotImplementedError


class Counter(_Metric):
    """Monotone accumulator; ``inc`` by any non-negative amount."""

    kind = "counter"

    def _new_state(self) -> list[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add *amount* (>= 0) to the series selected by *labels*."""
        if amount < 0:
            raise MetricError(
                f"{self.name}: counters only go up (got {amount})")
        with self._lock:
            self._state(labels)[0] += amount  # type: ignore[index]

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._state(labels)[0]  # type: ignore[index]

    def _render_series(self, key, state) -> list[str]:
        return [f"{self.name}{self._label_text(key)} "
                f"{_format_value(state[0])}"]

    def _snapshot_state(self, state) -> dict:
        return {"value": state[0]}


class Gauge(_Metric):
    """Point-in-time value; ``set``/``inc``/``dec``."""

    kind = "gauge"

    def _new_state(self) -> list[float]:
        return [0.0]

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._state(labels)[0] = float(value)  # type: ignore[index]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        with self._lock:
            self._state(labels)[0] += amount  # type: ignore[index]

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._state(labels)[0]  # type: ignore[index]

    def _render_series(self, key, state) -> list[str]:
        return [f"{self.name}{self._label_text(key)} "
                f"{_format_value(state[0])}"]

    def _snapshot_state(self, state) -> dict:
        return {"value": state[0]}


class _HistogramState:
    __slots__ = ("counts", "total", "count", "exemplars")

    def __init__(self, buckets: int) -> None:
        self.counts = [0] * buckets  # per-bucket, non-cumulative
        self.total = 0.0
        self.count = 0
        #: per-bucket last exemplar: (labels dict, observed value)
        self.exemplars: list[tuple[dict, float] | None] = \
            [None] * buckets


class Histogram(_Metric):
    """Distribution over fixed half-open ``(lower, upper]`` buckets.

    An observation equal to a boundary lands in the bucket whose upper
    bound it equals (the Prometheus ``le`` convention); anything above
    the last bound lands in the implicit ``+Inf`` bucket.

    ``observe(..., exemplar={...})`` attaches an OpenMetrics-style
    exemplar — the last one per bucket is kept, so storage is O(1)
    per series.  Exemplars are rendered on ``_bucket`` lines only
    when the owning registry was built with ``exemplars=True``
    (``repro serve --exemplars``); recording them is always allowed,
    so instrumentation sites never need to know the flag.
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help_text: str, label_names: tuple[str, ...],
                 buckets: Iterable[float] | None = None) -> None:
        super().__init__(registry, name, help_text, label_names)
        bounds = tuple(float(b) for b in
                       (buckets if buckets is not None
                        else DEFAULT_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2
                             in zip(bounds, bounds[1:])):
            raise MetricError(
                f"{name}: bucket bounds must be non-empty and "
                f"strictly increasing, got {bounds}")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf bucket is implicit
        self.bounds = bounds

    def _new_state(self) -> _HistogramState:
        return _HistogramState(len(self.bounds) + 1)

    def observe(self, value: float,
                exemplar: Mapping[str, object] | None = None,
                **labels: object) -> None:
        with self._lock:
            state = self._state(labels)
            assert isinstance(state, _HistogramState)
            index = len(self.bounds)
            for position, bound in enumerate(self.bounds):
                if value <= bound:
                    index = position
                    break
            state.counts[index] += 1
            state.total += value
            state.count += 1
            if exemplar:
                state.exemplars[index] = (
                    {str(k): str(v) for k, v in exemplar.items()},
                    value)

    @staticmethod
    def _exemplar_text(entry: tuple[dict, float] | None) -> str:
        if entry is None:
            return ""
        exemplar_labels, value = entry
        pairs = ",".join(
            f'{name}="{_escape_label_value(text)}"'
            for name, text in sorted(exemplar_labels.items()))
        return f" # {{{pairs}}} {_format_value(value)}"

    def _render_series(self, key, state: _HistogramState) -> list[str]:
        lines = []
        cumulative = 0
        with_exemplars = self._registry.exemplars
        for index, (bound, count) in enumerate(
                zip((*self.bounds, math.inf), state.counts)):
            cumulative += count
            extra = f'le="{_format_bound(bound)}"'
            suffix = (self._exemplar_text(state.exemplars[index])
                      if with_exemplars else "")
            lines.append(f"{self.name}_bucket"
                         f"{self._label_text(key, extra)} "
                         f"{cumulative}{suffix}")
        lines.append(f"{self.name}_sum{self._label_text(key)} "
                     f"{_format_value(state.total)}")
        lines.append(f"{self.name}_count{self._label_text(key)} "
                     f"{state.count}")
        return lines

    def _snapshot_state(self, state: _HistogramState) -> dict:
        cumulative = 0
        buckets = []
        for bound, count in zip((*self.bounds, math.inf), state.counts):
            cumulative += count
            buckets.append([_format_bound(bound), cumulative])
        return {"count": state.count, "sum": state.total,
                "buckets": buckets}


class MetricsRegistry:
    """Named metrics with shared locking and exposition.

    Declaring the same name twice returns the existing metric when the
    kind, labels and (for histograms) buckets agree, and raises
    :class:`MetricError` otherwise — instrumentation sites can simply
    re-declare what they need.

    >>> registry = MetricsRegistry()
    >>> queries = registry.counter("queries_total", "Total queries.",
    ...                            ("engine",))
    >>> queries.inc(engine="compiled")
    >>> print(registry.render_prometheus())
    # HELP queries_total Total queries.
    # TYPE queries_total counter
    queries_total{engine="compiled"} 1
    <BLANKLINE>
    """

    def __init__(self, max_label_sets: int = 256,
                 exemplars: bool = False) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        self.max_label_sets = max_label_sets
        #: render histogram exemplars on ``_bucket`` lines; mutable at
        #: runtime (``repro serve --exemplars`` flips it on).
        self.exemplars = exemplars

    # -- declaration ---------------------------------------------------

    def _declare(self, factory, name: str, help_text: str,
                 label_names: Iterable[str], **kwargs) -> _Metric:
        label_names = tuple(label_names)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not factory
                        or existing.label_names != label_names):
                    raise MetricError(
                        f"{name!r} already declared as "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}")
                return existing
            metric = factory(self, name, help_text, label_names,
                             **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                label_names: Iterable[str] = ()) -> Counter:
        return self._declare(Counter, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: Iterable[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help_text, label_names)

    def histogram(self, name: str, help_text: str = "",
                  label_names: Iterable[str] = (),
                  buckets: Iterable[float] | None = None) -> Histogram:
        return self._declare(Histogram, name, help_text, label_names,
                             buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        """The declared metric, or None."""
        with self._lock:
            return self._metrics.get(name)

    # -- exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._metrics):
                lines.extend(self._metrics[name].render())
            return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """A JSON-ready document of every metric and series."""
        with self._lock:
            return {"metrics": [
                {"name": metric.name, "type": metric.kind,
                 "help": metric.help,
                 "series": metric.snapshot_series()}
                for name, metric in sorted(self._metrics.items())]}

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent,
                          ensure_ascii=False)


# -- minimal text-format parser -------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$")


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    """``a="x",b="y"`` → sorted ((name, unescaped value), …) pairs."""
    pairs = []
    position = 0
    while position < len(text):
        match = re.match(r'([a-zA-Z_][a-zA-Z0-9_]*)="', text[position:])
        if match is None:
            raise ValueError(f"bad label pair at {text[position:]!r}")
        name = match.group(1)
        position += match.end()
        value_chars = []
        while position < len(text):
            char = text[position]
            if char == "\\":
                escape = text[position + 1]
                value_chars.append(
                    {"\\": "\\", '"': '"', "n": "\n"}[escape])
                position += 2
                continue
            if char == '"':
                position += 1
                break
            value_chars.append(char)
            position += 1
        pairs.append((name, "".join(value_chars)))
        if position < len(text) and text[position] == ",":
            position += 1
    return tuple(sorted(pairs))


_EXEMPLAR_RE = re.compile(
    r"^\{(?P<labels>.*)\}\s+(?P<value>\S+)\s*$")


def parse_prometheus_text(text: str, exemplars: dict | None = None
                          ) -> dict:
    """Parse the text exposition format into ``{(name, labels): value}``.

    *labels* is a sorted tuple of (name, value) pairs; histogram
    series appear under their ``_bucket``/``_sum``/``_count`` sample
    names.  Comments and blank lines are skipped.  An OpenMetrics
    exemplar suffix (``… # {query_id="q-1"} 0.004``) is tolerated on
    any sample line; pass a dict as *exemplars* to collect them as
    ``{(name, labels): (exemplar labels dict, value)}``.  This is the
    round-trip half of the exposition tests and the assertion tool of
    ``scripts/wire_smoke.py`` — not a full openmetrics parser.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        line, _, exemplar_text = line.partition(" # ")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        raw = match.group("value")
        value = float({"+Inf": "inf", "-Inf": "-inf",
                       "NaN": "nan"}.get(raw, raw))
        labels = _parse_labels(match.group("labels") or "")
        key = (match.group("name"), labels)
        samples[key] = value
        if exemplars is not None and exemplar_text:
            ex_match = _EXEMPLAR_RE.match(exemplar_text.strip())
            if ex_match is None:
                raise ValueError(
                    f"unparseable exemplar: {exemplar_text!r}")
            exemplars[key] = (
                dict(_parse_labels(ex_match.group("labels") or "")),
                float(ex_match.group("value")))
    return samples
