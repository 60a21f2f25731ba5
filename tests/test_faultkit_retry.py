"""RetryPolicy: bounded attempts, seeded backoff, allowlist semantics;
RetryingSource: the policy applied to every shard read."""

import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import no_join_strategy
from repro.data import MatrixSource
from repro.datasets import generate_real_world
from repro.obs import MetricsRegistry

from faultkit.faults import TransientShardError
from faultkit.retry import DEFAULT_RETRYABLE, RetryingSource, RetryPolicy


def no_sleep_policy(**kwargs):
    kwargs.setdefault("base_delay_s", 0.0)
    return RetryPolicy(**kwargs)


class _Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures, error=None):
        self.failures = failures
        self.error = error or TransientShardError("flaky read")
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "payload"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"multiplier": 0.5},
            {"max_delay_s": -1.0},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_retryable_must_hold_exception_types(self):
        with pytest.raises(TypeError, match="exception types"):
            RetryPolicy(retryable=(OSError, "not a type"))

    def test_transient_shard_error_is_retryable_by_default(self):
        # TransientShardError subclasses OSError precisely so the
        # default allowlist catches injected faults.
        assert issubclass(TransientShardError, DEFAULT_RETRYABLE)
        assert RetryPolicy().is_retryable(TransientShardError("x"))
        assert not RetryPolicy().is_retryable(ValueError("x"))


class TestBackoffSchedule:
    def test_length_is_retries_not_attempts(self):
        assert len(RetryPolicy(max_attempts=4).backoff_schedule()) == 3
        assert RetryPolicy(max_attempts=1).backoff_schedule() == ()

    def test_no_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.1, multiplier=2.0, jitter=0.0,
            max_delay_s=100.0,
        )
        assert policy.backoff_schedule() == pytest.approx((0.1, 0.2, 0.4))

    def test_max_delay_caps_after_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=1.0, multiplier=10.0,
            max_delay_s=2.0, jitter=0.5,
        )
        assert all(d <= 2.0 for d in policy.backoff_schedule())

    @settings(max_examples=50, deadline=None)
    @given(
        max_attempts=st.integers(min_value=1, max_value=8),
        base=st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False,
            allow_infinity=False,
        ),
        multiplier=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
        max_delay=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_schedule_is_deterministic_per_seed(
        self, max_attempts, base, multiplier, max_delay, jitter, seed
    ):
        """The whole backoff schedule is a pure function of the fields.

        Two separately constructed policies with equal parameters agree,
        and re-reading the schedule from one policy never advances any
        hidden RNG state — the property that makes retry timing
        reproducible across threads, runs and incident re-runs.
        """
        build = lambda: RetryPolicy(  # noqa: E731
            max_attempts=max_attempts, base_delay_s=base,
            multiplier=multiplier, max_delay_s=max_delay, jitter=jitter,
            seed=seed,
        )
        first = build().backoff_schedule()
        assert build().backoff_schedule() == first
        policy = build()
        assert policy.backoff_schedule() == first
        assert policy.backoff_schedule() == first
        assert len(first) == max_attempts - 1
        envelope = 1.0 + jitter
        for retry, delay in enumerate(first):
            assert 0.0 <= delay <= max_delay
            assert delay <= base * multiplier**retry * envelope + 1e-9

    def test_different_seeds_jitter_differently(self):
        kwargs = dict(max_attempts=6, base_delay_s=1.0, jitter=0.5)
        a = RetryPolicy(seed=0, **kwargs).backoff_schedule()
        b = RetryPolicy(seed=1, **kwargs).backoff_schedule()
        assert a != b


class TestCall:
    def test_success_first_try_never_sleeps(self):
        slept = []
        result = no_sleep_policy().call(lambda: 42, sleep=slept.append)
        assert result == 42
        assert slept == []

    def test_transient_failures_recover(self):
        flaky = _Flaky(failures=2)
        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=7)
        assert policy.call(flaky, sleep=slept.append) == "payload"
        assert flaky.calls == 3
        # The sleeps taken are exactly the policy's published schedule.
        assert tuple(slept) == policy.backoff_schedule()

    def test_non_retryable_propagates_immediately(self):
        flaky = _Flaky(failures=1, error=ValueError("a real bug"))
        with pytest.raises(ValueError, match="a real bug"):
            no_sleep_policy().call(flaky, sleep=lambda _: None)
        assert flaky.calls == 1

    def test_exhaustion_reraises_with_note(self):
        flaky = _Flaky(failures=99)
        with pytest.raises(TransientShardError, match="flaky read") as info:
            no_sleep_policy(max_attempts=3).call(
                flaky, describe="shard 5 read", sleep=lambda _: None
            )
        assert flaky.calls == 3
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "shard 5 read" in notes
        assert "all 3 attempts" in notes

    def test_registry_accounting(self):
        registry = MetricsRegistry()
        policy = no_sleep_policy(max_attempts=3)
        policy.call(_Flaky(failures=2), registry=registry,
                    sleep=lambda _: None)
        assert registry.get("resilience.retries").value == 2
        with pytest.raises(TransientShardError):
            policy.call(_Flaky(failures=99), registry=registry,
                        sleep=lambda _: None)
        assert registry.get("resilience.retries").value == 4
        assert registry.get("resilience.giveups").value == 1

    def test_max_attempts_one_disables_retrying(self):
        flaky = _Flaky(failures=1)
        with pytest.raises(TransientShardError):
            no_sleep_policy(max_attempts=1).call(flaky, sleep=lambda _: None)
        assert flaky.calls == 1

    def test_policy_is_frozen_and_hashable(self):
        policy = RetryPolicy()
        with pytest.raises(Exception):
            policy.max_attempts = 5
        assert hash(policy) == hash(RetryPolicy())


class _FlakySource(MatrixSource):
    """Fails the first ``failures`` reads of each shard in ``flaky``."""

    def __init__(self, X, y, shard_rows, flaky, failures=1, error=OSError):
        super().__init__(X, y, shard_rows=shard_rows)
        self.flaky = set(flaky)
        self.failures = failures
        self.error = error
        self.attempts = {}

    def shard(self, index):
        self.attempts[index] = self.attempts.get(index, 0) + 1
        if index in self.flaky and self.attempts[index] <= self.failures:
            self._flake(index)
        return super().shard(index)

    def _flake(self, index):  # a distinctive frame for traceback tests
        raise self.error(f"flaky read of shard {index}")


@pytest.fixture(scope="module")
def train_matrix():
    dataset = generate_real_world("yelp", n_fact=200, seed=0)
    matrices = no_join_strategy().matrices(dataset)
    return matrices.X_train, matrices.y_train


class TestRetryingSource:
    """The one retry site for shard reads: a source decorator."""

    def test_transient_fault_recovers_bit_identically(self, train_matrix):
        flaky = _FlakySource(*train_matrix, shard_rows=11, flaky=[1, 4])
        source = RetryingSource(flaky, no_sleep_policy())
        clean = list(MatrixSource(*train_matrix, shard_rows=11).iter_shards())
        fetched = list(source.iter_shards())
        assert [i for i, _, _ in fetched] == [i for i, _, _ in clean]
        for (_, Xa, ya), (_, Xb, yb) in zip(clean, fetched):
            np.testing.assert_array_equal(Xa.codes, Xb.codes)
            np.testing.assert_array_equal(ya, yb)
        # Each flaky shard took exactly one extra read.
        assert flaky.attempts[1] == flaky.attempts[4] == 2
        assert source.metrics.get("resilience.retries").value == 2

    def test_exhausted_retries_reraise_naming_the_shard(self, train_matrix):
        flaky = _FlakySource(
            *train_matrix, shard_rows=11, flaky=[2], failures=99
        )
        source = RetryingSource(flaky, no_sleep_policy(max_attempts=3))
        consumed = []
        with pytest.raises(OSError, match="flaky read of shard 2") as info:
            for index, _, _ in source.iter_shards():
                consumed.append(index)
        # Shards before the dead one arrived; it failed on every attempt.
        assert consumed == [0, 1]
        assert flaky.attempts[2] == 3
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "read of shard 2 failed on all 3 attempts" in notes
        assert source.metrics.get("resilience.giveups").value == 1

    def test_non_retryable_error_is_read_once_with_its_traceback(
        self, train_matrix
    ):
        flaky = _FlakySource(
            *train_matrix, shard_rows=11, flaky=[3], error=RuntimeError
        )
        source = RetryingSource(flaky, no_sleep_policy())
        with pytest.raises(RuntimeError, match="flaky read of shard 3") as info:
            list(source.iter_shards())
        assert flaky.attempts[3] == 1  # no second read for a real bug
        frames = [f.name for f in traceback.extract_tb(info.value.__traceback__)]
        assert "_flake" in frames

    def test_explicit_order_is_honoured(self, train_matrix):
        flaky = _FlakySource(*train_matrix, shard_rows=9, flaky=[0])
        source = RetryingSource(flaky, no_sleep_policy())
        order = np.arange(source.n_shards)[::-1]
        assert [i for i, _, _ in source.iter_shards(order)] == list(order)
        assert flaky.attempts[0] == 2
