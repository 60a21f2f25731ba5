"""Process-wide metric primitives: counters, gauges, and histograms.

Every stats surface in the repo — the dimension-index cache, the spill
cache, the micro-batcher, the prediction server, the experiment runner —
used to keep its own ad-hoc tallies.  This module states the bookkeeping
once: a :class:`MetricsRegistry` holds named metrics, each metric is
individually thread-safe, and the whole registry snapshots to one
JSON-serializable dict.  The dataclass stats the rest of the code
exposes (``CacheStats``, ``BatcherStats``, ...) are *views* built from a
registry snapshot, not parallel counters.

Three metric kinds:

- :class:`Counter` — a monotonically increasing tally (``inc``).
- :class:`Gauge` — a value that moves both ways (``set``/``add``), e.g.
  bytes currently spilled, shards currently queued.
- :class:`Histogram` — fixed-bin, log-spaced value distribution built
  for latency: observations land in one of ``bins_per_decade`` buckets
  per decade between ``low`` and ``high``, and quantiles (p50/p95/p99)
  are read back by interpolating within the winning bin.  Fixed bins
  keep ``observe`` O(log bins) with a bounded footprint, however many
  observations arrive — the property that makes it safe on the serving
  hot path.

Concurrency contract (enforced by ``tests/test_obs_metrics.py`` under
``PYTHONDEVMODE=1``): any number of threads may ``inc``/``observe``
concurrently without losing updates; each metric carries its own lock,
so two threads touching different metrics never contend.

Telemetry can be turned off wholesale: a registry constructed with
``enabled=False`` hands out shared no-op metrics, so instrumented code
runs with one attribute call of overhead and zero accounting.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]

#: Default histogram range: 1 microsecond to 1000 seconds, which covers
#: everything from a cache-hit gather to a full out-of-core training
#: pass when observations are in seconds.
DEFAULT_LOW = 1e-6
DEFAULT_HIGH = 1e3
DEFAULT_BINS_PER_DECADE = 10

#: The quantiles every snapshot reports.
SNAPSHOT_QUANTILES = (0.5, 0.95, 0.99)

#: Batched histogram observations are buffered raw and binned lazily;
#: once this many values are pending, the next ``observe_many`` drains
#: them inline so the buffer stays bounded (~0.5 MB of floats).
PENDING_DRAIN_THRESHOLD = 65536


class Counter:
    """A thread-safe monotonically increasing tally."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the tally."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        # Bare acquire/release instead of ``with``: the guarded add
        # cannot raise, and skipping the context-manager protocol
        # roughly halves the cost of this serving-hot-path call.
        lock = self._lock
        lock.acquire()
        self._value += amount
        lock.release()

    @property
    def value(self) -> int | float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> int | float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self._value})"


class Gauge:
    """A thread-safe value that can move both ways."""

    __slots__ = ("name", "_lock", "_value", "_high_water")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._high_water = 0.0

    def set(self, value: float) -> None:
        lock = self._lock
        lock.acquire()
        self._value = value
        if value > self._high_water:
            self._high_water = value
        lock.release()

    def add(self, amount: float) -> None:
        lock = self._lock
        lock.acquire()
        self._value += amount
        if self._value > self._high_water:
            self._high_water = self._value
        lock.release()

    @property
    def value(self) -> float:
        return self._value

    @property
    def high_water(self) -> float:
        """The largest value the gauge ever held (since reset)."""
        return self._high_water

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._high_water = 0.0

    def snapshot(self) -> dict:
        return {"value": self._value, "high_water": self._high_water}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self._value})"


class Histogram:
    """A fixed-bin log-spaced distribution with quantile read-back.

    Parameters
    ----------
    name:
        Registry name.
    low, high:
        The log-spaced range.  Observations below ``low`` land in the
        first bin, observations above ``high`` in a dedicated overflow
        bin (their exact values still feed ``sum``/``min``/``max``, so
        means stay exact even when the range is misjudged).
    bins_per_decade:
        Bin resolution; at the default 10 a quantile is read back with
        at most ~12% relative error, which is plenty for latency work.
    """

    __slots__ = (
        "name", "low", "high", "bins_per_decade", "_lock", "_edges",
        "_np_edges", "_counts", "_count", "_sum", "_min", "_max",
        "_pending", "_n_pending",
    )

    def __init__(
        self,
        name: str,
        low: float = DEFAULT_LOW,
        high: float = DEFAULT_HIGH,
        bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
    ):
        if not (0 < low < high):
            raise ValueError(f"need 0 < low < high, got low={low} high={high}")
        if bins_per_decade < 1:
            raise ValueError(
                f"bins_per_decade must be >= 1, got {bins_per_decade}"
            )
        self.name = name
        self.low = low
        self.high = high
        self.bins_per_decade = bins_per_decade
        n_bins = max(1, math.ceil(
            math.log10(high / low) * bins_per_decade - 1e-9
        ))
        ratio = (high / low) ** (1.0 / n_bins)
        # Upper edge of bin i is low * ratio**(i + 1); one extra
        # overflow bin catches everything above ``high``.
        self._edges = [low * ratio ** (i + 1) for i in range(n_bins)]
        self._edges[-1] = high  # exact top edge, no float drift
        self._np_edges = np.asarray(self._edges)
        self._counts = [0] * (n_bins + 1)
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Raw arrays queued by large observe_many calls, binned lazily
        # on the next read (or when PENDING_DRAIN_THRESHOLD is hit).
        self._pending: list[np.ndarray] = []
        self._n_pending = 0

    def observe(self, value: float, _bisect=bisect_right) -> None:
        """Record one observation (negative values clamp to the low bin)."""
        index = _bisect(self._edges, value)
        # Bare acquire/release (see Counter.inc): nothing in the guarded
        # block can raise, and this runs once per serving request.
        lock = self._lock
        lock.acquire()
        self._counts[index] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        lock.release()

    def observe_many(self, values) -> None:
        """Record a batch of observations under one lock acquisition.

        The micro-batcher's per-row latency accounting goes through
        here: a flush of N rows parks its values as one raw array and
        binning is deferred to the next *read* (any property, quantile,
        or snapshot) — so on the serving hot path a whole batch costs
        one lock and one list append, tens of nanoseconds per row,
        while readers still see every observation.  The parked buffer
        is bounded: past :data:`PENDING_DRAIN_THRESHOLD` values the
        drain happens inline.  Small batches (< 32) are binned
        immediately; the deferral machinery costs more than it saves
        there.
        """
        n = len(values)
        if n == 0:
            return
        if n >= 32:
            arr = np.asarray(values, dtype=np.float64)
            lock = self._lock
            lock.acquire()
            self._pending.append(arr)
            self._n_pending += n
            if self._n_pending >= PENDING_DRAIN_THRESHOLD:
                self._drain_locked()
            lock.release()
            return
        edges = self._edges
        indices = [bisect_right(edges, value) for value in values]
        total = sum(values)
        low, high = min(values), max(values)
        lock = self._lock
        lock.acquire()
        counts = self._counts
        for index in indices:
            counts[index] += 1
        self._count += n
        self._sum += total
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        lock.release()

    def _drain_locked(self) -> None:
        """Fold parked observe_many arrays into the bins (lock held)."""
        if not self._n_pending:
            return
        pending = self._pending
        arr = pending[0] if len(pending) == 1 else np.concatenate(pending)
        self._pending = []
        self._n_pending = 0
        bincounts = np.bincount(
            np.searchsorted(self._np_edges, arr, side="right"),
            minlength=len(self._counts),
        )
        counts = self._counts
        for index in np.flatnonzero(bincounts):
            counts[index] += int(bincounts[index])
        self._count += arr.size
        self._sum += float(arr.sum())
        low, high = float(arr.min()), float(arr.max())
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high

    def _drain(self) -> None:
        """Fold any parked observations before a read."""
        if self._n_pending:
            lock = self._lock
            lock.acquire()
            self._drain_locked()
            lock.release()

    @property
    def count(self) -> int:
        self._drain()
        return self._count

    @property
    def sum(self) -> float:
        self._drain()
        return self._sum

    @property
    def mean(self) -> float:
        self._drain()
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        self._drain()
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        self._drain()
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); 0.0 before any data.

        The winning bin is found by cumulative count; the value is
        interpolated linearly between the bin's edges, clamped to the
        true observed ``min``/``max`` so tiny samples read back sanely.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            self._drain_locked()
            total = self._count
            if total == 0:
                return 0.0
            counts = list(self._counts)
            lo, hi = self._min, self._max
        target = q * total
        cumulative = 0.0
        for i, bucket in enumerate(counts):
            if bucket == 0:
                continue
            if cumulative + bucket >= target:
                lower = self._edges[i - 1] if i > 0 else 0.0
                upper = self._edges[i] if i < len(self._edges) else hi
                fraction = (target - cumulative) / bucket
                value = lower + (upper - lower) * fraction
                return min(max(value, lo), hi)
            cumulative += bucket
        return hi

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._counts)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf
            self._pending = []
            self._n_pending = 0

    def snapshot(self) -> dict:
        """Count, sum, extremes and the standard quantiles as one dict."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **{
                f"p{int(q * 100)}": self.quantile(q)
                for q in SNAPSHOT_QUANTILES
            },
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, n={self.count}, "
            f"p50={self.p50:.3g}, p99={self.p99:.3g})"
        )


class _NullMetric:
    """Shared no-op stand-in handed out by disabled registries."""

    __slots__ = ()
    name = "<disabled>"
    value = 0
    high_water = 0.0
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0
    p50 = 0.0
    p95 = 0.0
    p99 = 0.0

    def inc(self, amount=1):
        pass

    def set(self, value):
        pass

    def add(self, amount):
        pass

    def observe(self, value):
        pass

    def observe_many(self, values):
        pass

    def quantile(self, q):
        return 0.0

    def reset(self):
        pass

    def snapshot(self):
        return 0


_NULL = _NullMetric()


class MetricsRegistry:
    """A thread-safe, name-keyed collection of metrics.

    ``counter``/``gauge``/``histogram`` get-or-create by name, so
    instrumented code can re-request its metrics without keeping
    references — and two call sites naming the same metric share one
    tally.  Asking for an existing name with a different kind raises.

    Construct with ``enabled=False`` for a null registry: every factory
    returns the shared no-op metric and ``snapshot()`` is empty.  This
    is the telemetry off-switch instrumented hot paths are benchmarked
    against (``benchmarks/bench_telemetry_overhead.py``).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind, factory):
        if not self.enabled:
            return _NULL
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self,
        name: str,
        low: float = DEFAULT_LOW,
        high: float = DEFAULT_HIGH,
        bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, low, high, bins_per_decade)
        )

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Every metric's JSON-serializable value, keyed by name."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def reset(self) -> None:
        """Zero every metric (names and kinds stay registered)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({len(self)} metrics, {state})"


#: The process-wide registry: cross-cutting counters (dataset
#: generation, experiment cells) land here, and ``repro stats`` /
#: ``--telemetry`` report it.  Component instances (servers, caches,
#: batchers) default to private registries so their per-instance stats
#: stay exact; pass this one explicitly to pool them.
_GLOBAL = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL
