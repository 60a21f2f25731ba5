"""Bounded retries with deterministic, seeded exponential backoff.

Transient failures — a flaky filesystem read, an injected
:class:`~faultkit.faults.TransientShardError`, a remote store hiccup —
should cost a bounded delay, not a multi-hour training run.
:class:`RetryPolicy` states the whole recovery contract as data:

- **Bounded attempts**: ``max_attempts`` total tries; the last failure
  re-raises with its original traceback.
- **Deterministic backoff**: delays grow exponentially from
  ``base_delay_s`` and are jittered by a :mod:`repro.rng`-seeded draw,
  so the *entire* backoff schedule is a pure function of the policy's
  parameters — reproducible in tests, benchmarks, and incident
  re-runs (``tests/test_faultkit_retry.py`` holds the property).
- **Retryable allowlist**: only exception types listed in
  ``retryable`` are retried; anything else (a genuine bug, a
  ``KeyboardInterrupt``) propagates on the first raise.

The policy object is frozen and stateless, so one instance can be
shared by any number of threads and sources.  Metrics are the
caller's: :meth:`call` accepts a registry and accounts
``resilience.retries`` / ``resilience.giveups`` there.

:class:`RetryingSource` is the one place shard reads are retried: a
:class:`~repro.data.FeatureSource` decorator whose ``shard(i)`` runs
under a policy, so a transient read costs a bounded backoff instead of
the pass, and the shards already read are never re-produced.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.data.source import FeatureSource, SourceDecorator
from repro.obs import MetricsRegistry
from repro.rng import ensure_rng

from . import backoff

#: Exceptions retried by default: real I/O errors and the injected
#: :class:`~faultkit.faults.TransientShardError` (an ``OSError`` subclass).
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (OSError,)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with seeded exponential-backoff jitter.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (``1`` disables retrying).
    base_delay_s:
        Delay before the first retry; each further retry multiplies it
        by ``multiplier``, capped at ``max_delay_s``.
    multiplier:
        Exponential growth factor of the backoff.
    max_delay_s:
        Upper bound on any single delay (applied after jitter).
    jitter:
        Fractional jitter amplitude: each delay is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]``.  ``0``
        disables jitter entirely.
    retryable:
        Exception types eligible for retry; everything else propagates
        immediately.
    seed:
        Seed of the jitter stream.  The full schedule is a pure
        function of the policy fields, so two policies with equal
        parameters back off identically.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0:
            raise ValueError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay_s < 0:
            raise ValueError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(
                f"jitter must lie in [0, 1], got {self.jitter}"
            )
        for kind in self.retryable:
            if not (isinstance(kind, type)
                    and issubclass(kind, BaseException)):
                raise TypeError(
                    f"retryable must hold exception types, got {kind!r}"
                )

    def backoff_schedule(self) -> tuple[float, ...]:
        """The delays before retries 1..``max_attempts - 1``, in order.

        Computed fresh from ``seed`` on every call, so the schedule is
        identical however many times (or from however many threads) it
        is read — the determinism the property tests pin down.
        """
        rng = ensure_rng(self.seed)
        delays = []
        for retry in range(self.max_attempts - 1):
            delay = self.base_delay_s * self.multiplier ** retry
            if self.jitter:
                delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
            delays.append(min(delay, self.max_delay_s))
        return tuple(delays)

    def is_retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is eligible for a retry."""
        return isinstance(error, self.retryable)

    def call(
        self,
        fn: Callable[[], Any],
        registry=None,
        describe: str = "operation",
        sleep: Callable[[float], None] = backoff.sleep,
    ) -> Any:
        """Run ``fn`` under this policy; returns its result.

        Retries only allowlisted exceptions, sleeping the scheduled
        backoff between attempts.  When attempts are exhausted the last
        failure re-raises unchanged (original traceback preserved).

        Parameters
        ----------
        fn:
            Zero-argument callable to protect.
        registry:
            Optional :class:`~repro.obs.MetricsRegistry`; each retry
            increments ``resilience.retries`` and each exhaustion
            ``resilience.giveups`` there.
        describe:
            Label for the operation, recorded on the give-up note
            attached to the final exception.
        sleep:
            Injectable delay function (tests pass a recorder to assert
            the schedule without waiting it out).
        """
        delays = self.backoff_schedule()
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except BaseException as error:
                if not self.is_retryable(error):
                    raise
                if attempt == self.max_attempts:
                    if registry is not None:
                        registry.counter("resilience.giveups").inc()
                    error.add_note(
                        f"retry policy exhausted: {describe} failed on "
                        f"all {self.max_attempts} attempts"
                    )
                    raise
                if registry is not None:
                    registry.counter("resilience.retries").inc()
                sleep(delays[attempt - 1])
        raise AssertionError("unreachable: the loop returns or raises")


class RetryingSource(SourceDecorator):
    """Read the wrapped source's shards under a :class:`RetryPolicy`.

    Every ``shard(i)`` runs through :meth:`RetryPolicy.call`, and
    iteration reads shard by shard through it, so one failed read
    retries alone and shards arrive in the requested order.  Retries
    change when a shard arrives, never its bytes.  Non-retryable errors
    propagate on their first raise, with their original traceback;
    exhausted retries re-raise the last failure with a note naming the
    shard.

    Parameters
    ----------
    source:
        Any :class:`~repro.data.FeatureSource`.
    policy:
        The retry policy applied to each shard read.
    registry:
        Metrics registry counting ``resilience.retries`` and
        ``resilience.giveups``; ``None`` keeps a private one.
    """

    def __init__(
        self,
        source: FeatureSource,
        policy: RetryPolicy,
        registry: MetricsRegistry | None = None,
    ):
        super().__init__(source)
        self.policy = policy
        self.metrics = registry if registry is not None else MetricsRegistry()

    def shard(self, index: int):
        return self.policy.call(
            lambda: self.source.shard(index),
            registry=self.metrics,
            describe=f"read of shard {index}",
        )
