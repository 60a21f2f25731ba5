"""Metric primitives: exact accounting, deferred binning, thread safety.

The concurrency tests run in CI under ``PYTHONDEVMODE=1``; they assert
the registry's contract directly — N threads hammering one metric lose
no updates — rather than sampling for races.
"""

import json
import math
import threading

import pytest

import numpy as np

from repro.obs import MetricsRegistry
from repro.obs.metrics import (
    HIGHEST,
    LOWEST,
    N_BUCKETS,
    PENDING_DRAIN_THRESHOLD,
    Counter,
    Gauge,
    Histogram,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_add_and_high_water(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.add(-4.0)
        assert gauge.value == 6.0
        assert gauge.high_water == 10.0
        gauge.reset()
        assert gauge.value == 0.0
        assert gauge.high_water == 0.0

    def test_snapshot_shape(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        assert gauge.snapshot() == {"value": 3.0, "high_water": 3.0}


class TestHistogram:
    def test_exact_moments(self):
        histogram = Histogram("h")
        for value in (0.001, 0.01, 0.1):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.111)
        assert histogram.mean == pytest.approx(0.037)
        assert histogram.min == 0.001
        assert histogram.max == 0.1

    def test_quantile_within_bin_resolution(self):
        histogram = Histogram("h")
        for _ in range(1000):
            histogram.observe(2.5e-3)
        # Log-spaced bins at 10/decade read back within ~12% relative
        # error; the clamp to observed min/max tightens single-valued
        # streams to exact.
        assert histogram.p50 == pytest.approx(2.5e-3)
        assert histogram.p99 == pytest.approx(2.5e-3)

    def test_out_of_range_observations_keep_exact_moments(self):
        histogram = Histogram("h")
        histogram.observe(1e-12)  # below LOWEST: underflow bucket
        histogram.observe(5e12)  # above HIGHEST: overflow bucket
        assert histogram.count == 2
        assert histogram.min == 1e-12
        assert histogram.max == 5e12
        assert histogram.sum == pytest.approx(5e12 + 1e-12)
        assert histogram._counts[0] == histogram._counts[-1] == 1

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h").quantile(1.5)

    def test_empty_histogram_reads_zero(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.min == 0.0
        assert histogram.max == 0.0
        assert histogram.p99 == 0.0


class TestObserveMany:
    def test_small_batch_matches_observe_loop(self):
        left, right = Histogram("a"), Histogram("b")
        values = [1.5e-4 * (i + 1) for i in range(8)]  # < 32: exact path
        left.observe_many(values)
        for value in values:
            right.observe(value)
        assert left.snapshot() == right.snapshot()

    def test_large_batch_matches_observe_loop_after_drain(self):
        left, right = Histogram("a"), Histogram("b")
        values = [1e-5 * (i % 97 + 1) for i in range(500)]  # deferred path
        left.observe_many(values)
        for value in values:
            right.observe(value)
        # Any read drains the parked arrays; the folded bins must be
        # indistinguishable from immediate per-value binning.  (sum and
        # mean differ only by float accumulation order: numpy's pairwise
        # reduction vs the sequential loop.)
        ours, theirs = left.snapshot(), right.snapshot()
        assert ours["count"] == theirs["count"]
        assert ours["min"] == theirs["min"]
        assert ours["max"] == theirs["max"]
        assert ours["sum"] == pytest.approx(theirs["sum"])
        for quantile in ("p50", "p95", "p99"):
            assert ours[quantile] == theirs[quantile]
        assert left._counts == right._counts

    def test_reads_see_pending_values(self):
        histogram = Histogram("h")
        histogram.observe_many([2e-4] * 64)
        assert histogram.count == 64
        assert histogram.sum == pytest.approx(64 * 2e-4)
        assert histogram.p50 == pytest.approx(2e-4)

    def test_pending_buffer_drains_inline_at_threshold(self):
        histogram = Histogram("h")
        chunk = [1e-4] * 1024
        for _ in range(PENDING_DRAIN_THRESHOLD // 1024 + 1):
            histogram.observe_many(chunk)
        # The inline drain kept the parked buffer bounded without
        # waiting for a read.
        assert histogram._n_pending < PENDING_DRAIN_THRESHOLD
        assert histogram.count == (PENDING_DRAIN_THRESHOLD // 1024 + 1) * 1024

    def test_empty_batch_is_noop(self):
        histogram = Histogram("h")
        histogram.observe_many([])
        assert histogram.count == 0

    def test_reset_clears_pending(self):
        histogram = Histogram("h")
        histogram.observe_many([1e-4] * 64)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.sum == 0.0


def _bucket_of(value: float) -> int:
    """The bucket one observation of ``value`` lands in."""
    histogram = Histogram("one")
    histogram.observe(value)
    histogram.count  # a read bins it
    (index,) = [i for i, count in enumerate(histogram._counts) if count]
    return index


#: Values at and around every bucket boundary that needs care, with the
#: bucket each lands in (None: somewhere in range).
EDGE_VALUES = [
    (0.0, 0),
    (-0.0, 0),
    (-1.0, 0),
    (-math.inf, 0),
    (5e-324, 0),  # the smallest subnormal
    (2.2250738585072014e-308, 0),  # the smallest normal
    (math.nextafter(LOWEST, 0.0), 0),
    (LOWEST, 1),
    (math.nextafter(LOWEST, 1.0), 1),
    (1.0, None),
    (math.nextafter(1.125, 0.0), None),
    (1.125, None),
    (math.nextafter(HIGHEST, 0.0), N_BUCKETS - 2),
    (HIGHEST, N_BUCKETS - 1),
    (1e300, N_BUCKETS - 1),
    (math.inf, N_BUCKETS - 1),
    (math.nan, N_BUCKETS - 1),
    (-math.nan, 0),  # its sign bit files it low, like -inf
]


class TestBuckets:
    """Scalar ``observe``, small ``observe_many`` batches and one large
    deferred batch bin every value into the same bucket."""

    @staticmethod
    def _three_ways(values):
        scalar, small, deferred = Histogram("s"), Histogram("m"), Histogram("d")
        for value in values:
            scalar.observe(value)
        for start in range(0, len(values), 7):
            small.observe_many(values[start:start + 7])
        deferred.observe_many(np.asarray(values))
        for histogram in (scalar, small, deferred):
            histogram.count  # a read bins what is parked
        return scalar, small, deferred

    @pytest.mark.parametrize("value, bucket", EDGE_VALUES)
    def test_edge_value_lands_in_its_bucket_on_every_path(self, value, bucket):
        scalar, small, deferred = self._three_ways([value])
        assert scalar._counts == small._counts == deferred._counts
        if bucket is not None:
            assert scalar._counts[bucket] == 1

    def test_in_range_buckets_split_each_octave_in_eight(self):
        assert _bucket_of(1.125) == _bucket_of(1.0) + 1
        assert _bucket_of(math.nextafter(1.125, 0.0)) == _bucket_of(1.0)
        assert _bucket_of(2.0) == _bucket_of(1.0) + 8
        assert _bucket_of(0.5) == _bucket_of(1.0) - 8

    def test_random_draws_agree_and_keep_exact_moments(self):
        rng = np.random.default_rng(2024)
        values = np.concatenate([
            rng.lognormal(-7.0, 3.0, 9_900),  # ~1 us to ~10 s, and beyond
            rng.uniform(-1.0, 1.0, 50),
            [value for value, _ in EDGE_VALUES if math.isfinite(value)],
        ])[:10_000]
        rng.shuffle(values)
        scalar, small, deferred = self._three_ways(values.tolist())
        assert scalar._counts == small._counts == deferred._counts
        for histogram in (scalar, small, deferred):
            assert histogram.count == values.size
            assert histogram.min == values.min()
            assert histogram.max == values.max()
        # One pass over one array, in observation order, on both paths.
        assert scalar.sum == deferred.sum == values.sum()
        assert small.sum == pytest.approx(values.sum(), rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_quantiles_fall_within_one_bucket_of_numpy(self, q):
        rng = np.random.default_rng(7)
        values = rng.lognormal(-7.0, 1.5, 10_000)
        histogram = Histogram("h")
        histogram.observe_many(values)
        estimate = histogram.quantile(q)
        exact = float(np.quantile(values, q))
        assert abs(_bucket_of(estimate) - _bucket_of(exact)) <= 1
        assert estimate == pytest.approx(exact, rel=0.125)


class TestRegistry:
    def test_get_or_create_shares_one_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("x")

    def test_disabled_registry_hands_out_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x")
        counter.inc(100)
        assert counter.value == 0
        assert registry.snapshot() == {}
        assert len(registry) == 0

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2e-3)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["c"] == 3
        assert snapshot["g"]["value"] == 1.5
        assert snapshot["h"]["count"] == 1
        for key in ("p50", "p95", "p99", "mean", "min", "max", "sum"):
            assert key in snapshot["h"]

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.reset()
        assert "c" in registry
        assert registry.counter("c").value == 0


def _hammer(threads, fn):
    workers = [threading.Thread(target=fn) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 2500

    def test_counter_loses_no_increments(self):
        counter = Counter("c")

        def work():
            for _ in range(self.PER_THREAD):
                counter.inc()

        _hammer(self.THREADS, work)
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_gauge_add_loses_no_updates(self):
        gauge = Gauge("g")

        def work():
            for _ in range(self.PER_THREAD):
                gauge.add(1.0)

        _hammer(self.THREADS, work)
        assert gauge.value == self.THREADS * self.PER_THREAD

    def test_histogram_mixed_writers_and_readers_stay_exact(self):
        histogram = Histogram("h")
        batch = [1e-4] * 64

        def write():
            for i in range(self.PER_THREAD // 64):
                if i % 2:
                    histogram.observe_many(batch)
                else:
                    for value in batch:
                        histogram.observe(value)
                # Concurrent reads force drains mid-stream; they must
                # never lose parked observations.
                histogram.quantile(0.5)

        _hammer(self.THREADS, write)
        expected = self.THREADS * (self.PER_THREAD // 64) * 64
        assert histogram.count == expected
        assert histogram.sum == pytest.approx(expected * 1e-4)

    def test_registry_get_or_create_race_yields_one_metric(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            seen.append(registry.counter("raced"))

        _hammer(self.THREADS, work)
        assert len({id(metric) for metric in seen}) == 1
