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
- :class:`Histogram` — fixed-bucket, log-scale value distribution
  built for latency: every histogram has the same buckets, 8 per
  octave from ~1 ns to ~10^12, read off a value's float64 bits, and
  quantiles (p50/p95/p99) are read back by interpolating within the
  winning bucket.  Observations are parked raw and binned in one
  branch-free pass on the next read, so ``observe`` is an append and
  the footprint stays bounded however many observations arrive — the
  property that makes it safe on the serving hot path.

Concurrency contract (enforced by ``tests/test_obs_metrics.py`` under
``PYTHONDEVMODE=1``): any number of threads may ``inc``/``observe``
concurrently without losing updates; each metric carries its own lock,
so two threads touching different metrics never contend.  A component
that keeps per-event records of its own folds them in before every
registry read (:meth:`MetricsRegistry.fold_before_reads`).

Telemetry can be turned off wholesale: a registry constructed with
``enabled=False`` hands out shared no-op metrics, so instrumented code
runs with one attribute call of overhead and zero accounting.
"""

from __future__ import annotations

import math
import threading
import weakref
from array import array

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]

#: The histogram range: values from ``LOWEST`` (~0.93 ns when they are
#: seconds) up to ``HIGHEST`` (~1.1e12: a thousand-gigabyte byte count,
#: or 35,000 years) get their own buckets.
LOWEST = 2.0 ** -30
HIGHEST = 2.0 ** 40

#: A positive float64's bits shifted right by this keep its exponent and
#: its top 3 mantissa bits: 8 buckets per octave.
_KEY_SHIFT = 49
_LOW_KEY = int(np.float64(LOWEST).view(np.int64)) >> _KEY_SHIFT
_HIGH_KEY = int(np.float64(HIGHEST).view(np.int64)) >> _KEY_SHIFT

#: Buckets per histogram: the underflow bucket, 8 per octave in range,
#: and the overflow bucket.
N_BUCKETS = _HIGH_KEY - _LOW_KEY + 2

#: ``_EDGES[i]`` is bucket ``i``'s upper edge and bucket ``i + 1``'s
#: lower one; the overflow bucket has no upper edge.
_EDGES = (
    (np.arange(_LOW_KEY, _HIGH_KEY + 1, dtype=np.int64) << _KEY_SHIFT)
    .view(np.float64)
    .tolist()
)

#: The quantiles every snapshot reports.
SNAPSHOT_QUANTILES = (0.5, 0.95, 0.99)

#: Histogram observations are parked raw and binned lazily; once this
#: many values wait in one buffer, the next observation drains them
#: inline so the buffer stays bounded (64 KB of floats).
PENDING_DRAIN_THRESHOLD = 8192


def _bucket_counts(values: np.ndarray) -> dict[int, int]:
    """Observations per non-empty bucket of a contiguous float64 array.

    Branch-free: one shift of the values' bits, one clip, one
    ``bincount``.  Values below ``LOWEST`` (zero and subnormals too)
    have smaller keys, and a set sign bit makes the int64 view negative,
    so they, negatives, ``-inf`` and a negative NaN land in the
    underflow bucket ``0``; ``inf`` and a positive NaN carry the largest
    exponent and land in the overflow bucket ``N_BUCKETS - 1``.
    """
    keys = values.view(np.int64) >> _KEY_SHIFT
    np.clip(keys, _LOW_KEY - 1, _HIGH_KEY, out=keys)
    # Counting the raw keys skips a subtraction pass; the buckets are
    # the bincount's tail.
    counts = np.bincount(keys, minlength=_HIGH_KEY + 1)[_LOW_KEY - 1:]
    return {
        int(index): int(counts[index]) for index in np.flatnonzero(counts)
    }


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
    """A fixed-bucket log-scale distribution with quantile read-back.

    Every histogram has the same :data:`N_BUCKETS` buckets.  A value's
    bucket is its float64 bit pattern shifted right by 49: the exponent
    and the top 3 mantissa bits, so each octave from :data:`LOWEST` to
    :data:`HIGHEST` splits into 8 buckets, each at most 12.5% wide.
    Values below ``LOWEST`` (zero, negatives, subnormals, ``-inf``) land
    in an underflow bucket and values from ``HIGHEST`` up (``inf``, a
    positive NaN) in an overflow bucket; exact values still feed
    ``sum``/``min``/``max``, so means stay exact whatever the range.

    Observations are parked raw and binned in one vectorized pass on the
    next read, or inline once :data:`PENDING_DRAIN_THRESHOLD` values
    wait in either buffer: ``observe`` appends to a float array without
    taking the lock, ``observe_many`` parks its array under it.  Scalar
    and batched observations share the one binning pass, so they agree
    bucket for bucket.
    """

    __slots__ = (
        "name", "_lock", "_values", "_counts", "_count", "_sum", "_min",
        "_max", "_pending", "_n_pending",
    )

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._counts = [0] * N_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Scalar observations, appended without the lock: an append is
        # one C call under the GIL, and only the drain, under the lock,
        # removes values, from the front, so a racing append is kept.
        self._values = array("d")
        # Arrays parked by observe_many (under the lock).
        self._pending: list[np.ndarray] = []
        self._n_pending = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        values = self._values
        values.append(value)
        if len(values) >= PENDING_DRAIN_THRESHOLD:
            self._drain()

    def observe_many(self, values) -> None:
        """Record a batch of observations under one lock acquisition.

        The batch is parked as one float array and binned with the
        other parked values on the next read; past
        :data:`PENDING_DRAIN_THRESHOLD` parked values the drain happens
        inline, so the buffer stays bounded.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if not arr.size:
            return
        lock = self._lock
        lock.acquire()
        self._pending.append(arr)
        self._n_pending += arr.size
        if self._n_pending >= PENDING_DRAIN_THRESHOLD:
            self._drain_locked()
        lock.release()

    def _drain_locked(self) -> None:
        """Bin every parked observation (lock held)."""
        values = self._values
        n = len(values)
        if n:
            self._pending.append(np.frombuffer(values[:n], dtype=np.float64))
            del values[:n]
        if not self._pending:
            return
        pending = self._pending
        arr = pending[0] if len(pending) == 1 else np.concatenate(pending)
        self._pending = []
        self._n_pending = 0
        counts = self._counts
        for index, count in _bucket_counts(arr).items():
            counts[index] += count
        self._count += arr.size
        self._sum += float(arr.sum())
        low, high = float(arr.min()), float(arr.max())
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high

    def _drain(self) -> None:
        """Bin any parked observations before a read."""
        if self._n_pending or len(self._values):
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

        The winning bucket is found by cumulative count; the value is
        interpolated linearly between the bucket's edges, clamped to the
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
                lower = _EDGES[i - 1] if i > 0 else 0.0
                upper = _EDGES[i] if i < len(_EDGES) else hi
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
            self._counts = [0] * N_BUCKETS
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf
            del self._values[:]
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

    A component whose hot path keeps one record per event instead of
    updating several metrics registers the method that folds its
    records into them with :meth:`fold_before_reads`; every read
    through the registry runs it first.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._folds: list[weakref.WeakMethod] = []

    def fold_before_reads(self, fold) -> None:
        """Run the bound method ``fold`` before every read of this registry.

        The accessors (``counter``/``gauge``/``histogram``), ``get``,
        ``names``, ``snapshot`` and ``reset`` call it, so they see every
        record the component has kept.  ``fold`` must not read the
        registry itself.  The registry holds it weakly: a collected
        component drops out.
        """
        if not self.enabled:
            return
        with self._lock:
            self._folds = [ref for ref in self._folds if ref() is not None]
            self._folds.append(weakref.WeakMethod(fold))

    def _run_folds(self) -> None:
        for ref in self._folds:
            fold = ref()
            if fold is not None:
                fold()

    def _get_or_create(self, name: str, kind, factory):
        if not self.enabled:
            return _NULL
        self._run_folds()
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

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name))

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        self._run_folds()
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        self._run_folds()
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Every metric's JSON-serializable value, keyed by name."""
        self._run_folds()
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def reset(self) -> None:
        """Zero every metric (names and kinds stay registered)."""
        self._run_folds()
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
