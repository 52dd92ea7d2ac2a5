"""Process-local metrics registry: counters, gauges, log-scale histograms.

Metric values deliberately contain **no wall-clock quantities** — only
monotonically accumulated counts, explicitly-set gauges, and fixed
log-scale histogram buckets — so that two identical seeded campaigns
produce byte-identical snapshots and tests can compare them directly
(durations/timestamps live in the JSONL event stream instead, where the
aggregation layer knows to exclude them from determinism checks).

The registry is cheap enough to keep always-on: hot paths
(:class:`repro.nn.PromptCache`, the retry supervisor, journal writes)
tick counters unconditionally, and span tracing reads
:meth:`MetricsRegistry.values` before/after each span to report deltas.

External metric sources plug in as *groups*
(:meth:`MetricsRegistry.register_group`): a group is a callable
returning a flat ``name -> number`` dict, polled lazily at snapshot
time.  :class:`repro.nn.InferenceCounters` is absorbed this way — the
dataclass keeps its cheap attribute increments on the decode hot path,
but its values appear in every snapshot and span delta as
``inference.<field>``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Union

Number = Union[int, float]

Labels = Optional[Dict[str, str]]


def labeled_key(name: str, labels: Labels = None) -> str:
    """Canonical registry key: ``name`` or ``name{k="v",...}`` (sorted).

    Labels are folded into the key so the ``values()`` / ``values_delta``
    machinery (and every snapshot consumer) sees one flat namespace;
    the metric object keeps the base name and label dict separately so
    the Prometheus renderer can emit them as real label pairs.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-value-wins metric (e.g. queue depth, cache size)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Fixed log2-bucket histogram of non-negative observations.

    Bucket ``i`` counts observations with ``value <= 2**i`` (the last
    bucket is unbounded).  Bucket bounds are fixed at construction, so
    two runs observing the same values produce identical snapshots —
    no adaptive resizing, no wall-clock.  The observed ``min``/``max``
    are tracked (not snapshotted) to clamp :meth:`quantile`.
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "count", "total", "min", "max"
    )

    def __init__(self, name: str, max_exponent: int = 24, labels: Labels = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        #: Inclusive upper bounds; observations above the last finite
        #: bound land in the overflow bucket.
        self.bounds = [2 ** i for i in range(max_exponent + 1)]
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        # Only non-empty buckets, keyed by their bound, keeps snapshots
        # small and stable.
        buckets = {
            str(self.bounds[i]) if i < len(self.bounds) else "inf": c
            for i, c in enumerate(self.bucket_counts)
            if c
        }
        return {"count": self.count, "total": self.total, "buckets": buckets}

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate (``0 <= q <= 1``).

        Standard Prometheus-style ``histogram_quantile``: find the
        bucket where the cumulative count crosses ``q * count`` and
        interpolate linearly inside it.  The estimate is clamped into
        the observed ``[min, max]``, so it never reports a value no
        observation reached (a single observation is every quantile).
        Returns ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        return float(min(max(self._interpolate(q * self.count), self.min), self.max))

    def _interpolate(self, target: float) -> float:
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= target:
                if i >= len(self.bounds):  # overflow bucket
                    return float(self.bounds[-1])
                lower = float(self.bounds[i - 1]) if i > 0 else 0.0
                upper = float(self.bounds[i])
                fraction = (target - cumulative) / bucket_count
                return lower + max(0.0, min(1.0, fraction)) * (upper - lower)
            cumulative += bucket_count
        return float(self.bounds[-1])


class MetricsRegistry:
    """Get-or-create registry of named metrics plus pluggable groups."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._groups: Dict[str, Callable[[], Dict[str, Number]]] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, labels: Labels = None) -> Counter:
        key = labeled_key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, labels)
            return metric

    def gauge(self, name: str, labels: Labels = None) -> Gauge:
        key = labeled_key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, labels)
            return metric

    def histogram(self, name: str, max_exponent: int = 24, labels: Labels = None) -> Histogram:
        key = labeled_key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, max_exponent, labels)
            return metric

    def register_group(self, name: str, provider: Callable[[], Dict[str, Number]]) -> None:
        """Attach an external metric source polled at snapshot time.

        Re-registering a name replaces the previous provider (a fresh
        :class:`~repro.nn.GPT2Inference` supersedes the one it was built
        to replace).
        """
        with self._lock:
            self._groups[name] = provider

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def values(self) -> Dict[str, Number]:
        """Flat ``name -> value`` view of counters, gauges and groups.

        This is the cheap poll span tracing diffs before/after a span;
        histograms are excluded (their deltas are not a single number).
        """
        out: Dict[str, Number] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for group, provider in self._groups.items():
            for key, value in provider().items():
                out[f"{group}.{key}"] = value
        return out

    def snapshot(self) -> dict:
        """Structured, JSON-ready view of every metric (deterministic)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(self._histograms.items())},
            "groups": {
                n: dict(sorted(provider().items()))
                for n, provider in sorted(self._groups.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric and group (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._groups.clear()


#: Process-global default registry.  Forked workers inherit a copy; the
#: session layer reports *deltas* against a start mark, so inherited
#: parent counts never pollute per-worker numbers.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _REGISTRY


def values_delta(before: Dict[str, Number], after: Dict[str, Number]) -> Dict[str, Number]:
    """Non-zero differences ``after - before`` (new names count from 0)."""
    delta: Dict[str, Number] = {}
    for name, value in after.items():
        diff = value - before.get(name, 0)
        if diff:
            delta[name] = diff
    return delta
