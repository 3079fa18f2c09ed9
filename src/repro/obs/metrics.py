"""Dependency-free metrics primitives: Counter, Gauge, Histogram, registry.

The observability substrate the ROADMAP's fleet scale-out is judged with —
stdlib only, so the hot layers (engine batches, fleet ingests, fleet
rounds, service requests) can record throughput and latency without pulling
a client library into the repository.  Design points:

* **One process-wide registry.**  Instrumented modules create their metrics
  at import time through :func:`counter` / :func:`gauge` / :func:`histogram`
  (get-or-create, so repeated imports and test reloads are idempotent); the
  fleet service and the ``repro.cli metrics`` command render the same
  :data:`REGISTRY`.
* **Lock only on the update.**  Metric *lookup* is a plain dict read on the
  parent object; the per-metric ``threading.Lock`` is held only around the
  child value/bucket mutation — no registry-wide lock anywhere on the hot
  path (the 8-thread hammer test in ``tests/test_obs.py`` pins exactness).
* **Fixed log-spaced latency buckets.**  Histograms default to a 1/2/5 ×
  10^k grid spanning 1 µs .. 50 s — wide enough for a packed-kernel call
  and a million-device round on the same axis — plus the implicit ``+Inf``
  bucket.  Bucket counts are stored per-bucket and cumulated only at
  render time, so ``observe`` is one ``bisect`` and two adds.
* **Two render targets.**  :meth:`MetricsRegistry.render_text` emits the
  Prometheus text-exposition format 0.0.4 (``# HELP`` / ``# TYPE``,
  cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``);
  :meth:`MetricsRegistry.snapshot` the JSON-ready structured equivalent.

Disabling (:func:`set_enabled` / the :func:`disabled` context manager)
turns every update into an early return — ``benchmarks/bench_obs_overhead.py``
uses it to pin the instrumented-vs-uninstrumented overhead ≤ 3%.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "set_enabled",
    "is_enabled",
    "disabled",
]

#: Default histogram bounds: a fixed 1/2/5 log-spaced grid from 1 µs to
#: 50 s.  Small enough (24 buckets) to render cheaply, wide enough that a
#: packed-kernel dispatch and a whole fleet round land on the same axis.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    float(f"{mantissa}e{exponent}")
    for exponent in range(-6, 2)
    for mantissa in (1, 2, 5)
)

_METRIC_NAME_RE_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"

# Process-wide enable flag.  Reads are a bare global lookup (the fast path
# of every update); writes go through set_enabled.
_enabled = True


def set_enabled(value: bool) -> None:
    """Globally enable/disable metric updates and span recording."""
    global _enabled
    _enabled = bool(value)


def is_enabled() -> bool:
    """True when metric updates and span recording are active."""
    return _enabled


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily disable all metric updates and span recording.

    The overhead benchmark's "uninstrumented" arm: inside the block every
    ``inc``/``set``/``observe`` is an early return and spans detach from
    the trace ring (they still measure time — see ``tracing`` — so code
    that reads a span's duration keeps working).
    """
    previous = _enabled
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def _validate_name(name: str) -> str:
    if not name or name[0].isdigit() or any(c not in _METRIC_NAME_RE_CHARS for c in name):
        raise ValueError(
            f"invalid metric name {name!r}: use [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Exposition-format sample value: integral floats render as integers."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(label_names: Sequence[str], key: Tuple[str, ...]) -> str:
    if not label_names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, key)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared machinery: label validation, child lookup, the update lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        self.name = _validate_name(name)
        self.help = str(help)
        self.label_names: Tuple[str, ...] = tuple(labels)
        for label in self.label_names:
            _validate_name(label)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        # Fast path: call sites pass the labels in declaration order.
        if tuple(labels) == self.label_names:
            return tuple(map(str, labels.values()))
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        """Identity for get-or-create conflict checks."""
        return (self.kind, self.label_names)


class Counter(_Metric):
    """Monotonically increasing total (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the labelled child."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        if not _enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current total of the labelled child (0.0 if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Metric):
    """A value that goes up and down (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the labelled child to ``value``."""
        if not _enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        """Add ``amount`` (any sign) to the labelled child."""
        if not _enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of the labelled child (0.0 if never set)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())


class _HistogramChild:
    __slots__ = ("counts", "sum")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets  # per-bucket, cumulated at render
        self.sum = 0.0


class Histogram(_Metric):
    """Latency distribution over fixed log-spaced buckets (per label set)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be a sorted, unique, non-empty sequence")
        if any(math.isinf(bound) for bound in bounds):
            raise ValueError("the +Inf bucket is implicit; do not pass it")
        self.bounds: Tuple[float, ...] = bounds
        self._children: Dict[Tuple[str, ...], _HistogramChild] = {}

    def signature(self) -> Tuple[str, Tuple[str, ...], Tuple[float, ...]]:  # type: ignore[override]
        return (self.kind, self.label_names, self.bounds)

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labelled child."""
        if not _enabled:
            return
        key = self._key(labels)
        index = bisect_left(self.bounds, value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(len(self.bounds) + 1)
            child.counts[index] += 1
            child.sum += value

    def count(self, **labels: object) -> int:
        """Total observations of the labelled child."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return sum(child.counts) if child is not None else 0

    def total(self, **labels: object) -> float:
        """Sum of observed values of the labelled child."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return child.sum if child is not None else 0.0

    def samples(self) -> List[Tuple[Tuple[str, ...], List[int], float]]:
        with self._lock:
            return sorted(
                (key, list(child.counts), child.sum)
                for key, child in self._children.items()
            )


class MetricsRegistry:
    """Process-wide metric namespace with text and JSON exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # --------------------------------------------------------- registration
    def _get_or_create(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is None:
                self._metrics[metric.name] = metric
                return metric
            if existing.signature() != metric.signature():
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.signature()}, cannot re-register as "
                    f"{metric.signature()}"
                )
            return existing

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        """Get-or-create a :class:`Counter` (conflicting redefinition raises)."""
        metric = self._get_or_create(Counter(name, help, labels))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        """Get-or-create a :class:`Gauge` (conflicting redefinition raises)."""
        metric = self._get_or_create(Gauge(name, help, labels))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get-or-create a :class:`Histogram` (conflicting redefinition raises)."""
        metric = self._get_or_create(Histogram(name, help, labels, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric object, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def reset(self) -> None:
        """Zero every metric's children (registrations survive).

        Test/benchmark hook: module-level metric objects stay valid, their
        accumulated values drop to empty.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            with metric._lock:
                if isinstance(metric, (Counter, Gauge)):
                    metric._values.clear()
                elif isinstance(metric, Histogram):
                    metric._children.clear()

    # ----------------------------------------------------------- exposition
    def render_text(self) -> str:
        """The registry in Prometheus text-exposition format 0.0.4."""
        lines: List[str] = []
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                for key, value in metric.samples():
                    labels = _render_labels(metric.label_names, key)
                    lines.append(f"{metric.name}{labels} {_format_value(value)}")
            elif isinstance(metric, Histogram):
                for key, counts, total in metric.samples():
                    cumulative = 0
                    for bound, count in zip(metric.bounds, counts):
                        cumulative += count
                        le = _format_value(bound)
                        labels = _render_labels(
                            metric.label_names + ("le",), key + (le,)
                        )
                        lines.append(
                            f"{metric.name}_bucket{labels} {cumulative}"
                        )
                    cumulative += counts[-1]
                    labels = _render_labels(
                        metric.label_names + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                    plain = _render_labels(metric.label_names, key)
                    lines.append(f"{metric.name}_sum{plain} {_format_value(total)}")
                    lines.append(f"{metric.name}_count{plain} {cumulative}")
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready structured snapshot (the ``/metrics.json`` payload)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        rendered: List[Dict[str, object]] = []
        for metric in metrics:
            entry: Dict[str, object] = {
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
            }
            if isinstance(metric, (Counter, Gauge)):
                entry["samples"] = [
                    {
                        "labels": dict(zip(metric.label_names, key)),
                        "value": value,
                    }
                    for key, value in metric.samples()
                ]
            elif isinstance(metric, Histogram):
                samples: List[Dict[str, object]] = []
                for key, counts, total in metric.samples():
                    cumulative = 0
                    buckets: Dict[str, int] = {}
                    for bound, count in zip(metric.bounds, counts):
                        cumulative += count
                        buckets[_format_value(bound)] = cumulative
                    cumulative += counts[-1]
                    buckets["+Inf"] = cumulative
                    samples.append(
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "buckets": buckets,
                            "sum": total,
                            "count": cumulative,
                        }
                    )
                entry["samples"] = samples
            rendered.append(entry)
        return {"metrics": rendered}


#: The process-wide default registry every instrumented module writes to.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return REGISTRY


def counter(name: str, help: str, labels: Sequence[str] = ()) -> Counter:
    """Get-or-create a counter in the default registry."""
    return REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
    """Get-or-create a gauge in the default registry."""
    return REGISTRY.gauge(name, help, labels)


def histogram(
    name: str,
    help: str,
    labels: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
) -> Histogram:
    """Get-or-create a histogram in the default registry."""
    return REGISTRY.histogram(name, help, labels, buckets)
