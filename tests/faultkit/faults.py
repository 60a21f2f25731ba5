"""Deterministic, seeded fault injection for the data and serving planes.

Production failure modes — a transient read error on one shard, a slow
device, a corrupted spill file, a request row that crashes the model —
are only engineerable against if they are *reproducible*.  This module
states each failure as data:

- :class:`FaultSpec` / :class:`FaultSchedule` — a plan mapping
  ``(shard index, attempt number)`` to a fault kind.  Schedules are
  either written out explicitly or drawn with :meth:`FaultSchedule.seeded`
  from a :mod:`repro.rng` stream, so "10% of shards fail transiently on
  their first read" is one seeded expression that replays identically
  in every test, benchmark and chaos run.
- :class:`FaultInjectingSource` — a :class:`~repro.data.FeatureSource`
  decorator that executes the schedule: ``transient`` faults raise
  :class:`TransientShardError` (retryable), ``slow`` faults delay shard
  production through the :mod:`faultkit.backoff` chokepoint.
- :func:`corrupt_spill_entries` — applies a schedule's
  ``corrupt_spill`` faults by flipping bytes in a
  :class:`~repro.data.SpillCacheSource`'s on-disk entries, exercising
  its checksum-verified recovery path.
- :class:`FaultInjectingModel` — wraps a fitted predictor so a seeded,
  content-keyed subset of rows raises at predict time (a poisoned row
  fails every request in its micro-batch).

Everything is counted through ``resilience.faults_injected`` (plus a
per-kind breakdown) so a chaos report can reconcile injected faults
against observed retries and recoveries.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.source import FeatureSource, SourceDecorator
from repro.errors import ReproError
from repro.ml.sparse import gathered
from repro.obs import MetricsRegistry
from repro.rng import ensure_rng

from . import backoff

#: The fault kinds a schedule may carry.
TRANSIENT = "transient"
SLOW = "slow"
CORRUPT_SPILL = "corrupt_spill"
FAULT_KINDS = (TRANSIENT, SLOW, CORRUPT_SPILL)


class TransientShardError(ReproError, OSError):
    """An injected shard read failure that a retry recovers from.

    Derives from :class:`OSError` so the default retryable-exception
    allowlist of :class:`~faultkit.retry.RetryPolicy` covers both real
    I/O failures and the faults :class:`FaultInjectingSource` injects.
    """


class PoisonedRowError(ReproError):
    """An injected per-row prediction failure (see FaultInjectingModel)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *what* happens to *which* shard, *when*.

    Parameters
    ----------
    shard:
        Stable shard index the fault applies to.
    kind:
        One of :data:`FAULT_KINDS`.
    attempts:
        1-based attempt numbers on which the fault fires.  ``(1,)``
        (the default) fails only the first read — the transient shape a
        bounded retry recovers from; ``(1, 2, 3)`` against a
        2-attempt policy models a hard failure.  Ignored for
        ``corrupt_spill`` (corruption is applied to the file once).
    delay_s:
        Injected delay for ``slow`` faults.
    """

    shard: int
    kind: str = TRANSIENT
    attempts: tuple[int, ...] = (1,)
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ValueError(
                f"attempts must be 1-based and non-empty, got {self.attempts}"
            )
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


class FaultSchedule:
    """An immutable plan of :class:`FaultSpec`\\ s, queryable per access.

    The schedule is pure data: it never mutates, so one schedule can
    drive a training run, its bit-identical re-run, and the assertion
    comparing them.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        self.specs = tuple(specs)
        self._by_shard_kind: dict[tuple[int, str], FaultSpec] = {}
        for spec in self.specs:
            key = (spec.shard, spec.kind)
            if key in self._by_shard_kind:
                raise ValueError(
                    f"duplicate fault for shard {spec.shard} kind "
                    f"{spec.kind!r}; merge the attempts into one spec"
                )
            self._by_shard_kind[key] = spec

    @classmethod
    def seeded(
        cls,
        n_shards: int,
        rate: float = 0.1,
        seed: int | np.random.Generator | None = 0,
        kind: str = TRANSIENT,
        attempts: tuple[int, ...] = (1,),
        delay_s: float = 0.0,
    ) -> "FaultSchedule":
        """Draw a schedule faulting ``rate`` of ``n_shards``, per seed.

        Deterministic: the same ``(n_shards, rate, seed, ...)`` always
        plans the same shard set.  At any ``rate > 0`` at least one
        shard faults, so a "10% faults" smoke test on 4 shards still
        exercises the recovery path.
        """
        if n_shards < 0:
            raise ValueError(f"n_shards must be >= 0, got {n_shards}")
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must lie in [0, 1], got {rate}")
        if n_shards == 0 or rate == 0:
            return cls()
        rng = ensure_rng(seed)
        hit = rng.random(n_shards) < rate
        if not hit.any():
            hit[int(rng.integers(n_shards))] = True
        return cls(
            [
                FaultSpec(shard=int(i), kind=kind, attempts=attempts,
                          delay_s=delay_s)
                for i in np.flatnonzero(hit)
            ]
        )

    def fault_for(self, shard: int, attempt: int, kind: str) -> FaultSpec | None:
        """The planned fault for this ``(shard, attempt, kind)``, if any."""
        spec = self._by_shard_kind.get((shard, kind))
        if spec is not None and attempt in spec.attempts:
            return spec
        return None

    def shards(self, kind: str | None = None) -> tuple[int, ...]:
        """The shard indices faulted (optionally for one kind), sorted."""
        return tuple(
            sorted(
                spec.shard
                for spec in self.specs
                if kind is None or spec.kind == kind
            )
        )

    def describe(self) -> dict:
        """JSON-serializable view (for chaos reports and bench output)."""
        return {
            "faults": [
                {
                    "shard": spec.shard,
                    "kind": spec.kind,
                    "attempts": list(spec.attempts),
                    "delay_s": spec.delay_s,
                }
                for spec in self.specs
            ]
        }

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        kinds = {kind: len(self.shards(kind)) for kind in FAULT_KINDS
                 if self.shards(kind)}
        return f"FaultSchedule({len(self.specs)} faults, {kinds})"


class FaultInjectingSource(SourceDecorator):
    """Execute a :class:`FaultSchedule` against the wrapped source.

    Attempt numbers count *per shard, per decorator instance*: the
    first ``shard(i)`` call is attempt 1, a retry is attempt 2, and so
    on — exactly the view a :class:`~faultkit.retry.RetryingSource`
    around this source has.  The counter is lock-guarded, so threads
    sharing one injector each see one consistent attempt sequence.

    Faults change *whether and when* a shard materialises, never its
    bytes: a run that survives its schedule is byte-identical to an
    uninjected run, which is the invariant every chaos assertion rests
    on.
    """

    def __init__(
        self,
        source: FeatureSource,
        schedule: FaultSchedule,
        registry: MetricsRegistry | None = None,
    ):
        super().__init__(source)
        self.schedule = schedule
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._injected = self.metrics.counter("resilience.faults_injected")
        self._by_kind = {
            kind: self.metrics.counter(f"resilience.faults_injected.{kind}")
            for kind in (TRANSIENT, SLOW)
        }
        self._lock = threading.Lock()
        self._attempts: dict[int, int] = {}

    def attempts(self, shard: int) -> int:
        """How many times ``shard`` has been requested so far."""
        with self._lock:
            return self._attempts.get(shard, 0)

    def shard(self, index: int):
        with self._lock:
            attempt = self._attempts.get(index, 0) + 1
            self._attempts[index] = attempt
        slow = self.schedule.fault_for(index, attempt, SLOW)
        if slow is not None:
            self._injected.inc()
            self._by_kind[SLOW].inc()
            backoff.sleep(slow.delay_s)
        spec = self.schedule.fault_for(index, attempt, TRANSIENT)
        if spec is not None:
            self._injected.inc()
            self._by_kind[TRANSIENT].inc()
            raise TransientShardError(
                f"injected transient fault: shard {index}, attempt {attempt} "
                f"(schedule attempts {spec.attempts})"
            )
        return self.source.shard(index)

    def __repr__(self) -> str:
        return f"FaultInjectingSource({self.source!r}, {self.schedule!r})"


def corrupt_spill_entries(schedule: FaultSchedule, spill) -> list[int]:
    """Apply a schedule's ``corrupt_spill`` faults to a spill cache.

    Flips bytes in the on-disk entry of every scheduled shard that is
    currently resident in ``spill`` (a
    :class:`~repro.data.SpillCacheSource`), returning the shard indices
    actually corrupted.  The cache's checksum verification then detects
    the damage on the next read and transparently re-encodes — the
    property ``tests/test_faultkit_faults.py`` asserts.
    """
    corrupted = []
    for index in schedule.shards(CORRUPT_SPILL):
        path = spill._path(index)
        if not path.exists():
            continue
        blob = bytearray(path.read_bytes())
        if not blob:
            continue
        # Flip a byte in the middle of the archive: past the zip local
        # header, inside the stored array payload.
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        corrupted.append(index)
    return corrupted


class FaultInjectingModel:
    """Wrap a fitted predictor so a seeded subset of rows poisons it.

    A "poisoned row" is the serving-side failure unit: one request
    whose feature values drive the model into an exception (the paper's
    own Section 6.2 example is an unseen category crashing R's trees).
    The poison set here is *content-keyed* — a row is poisoned iff the
    CRC of its code vector, salted with ``seed``, falls below
    ``rate`` — so the same row fails in every batch composition,
    whichever worker predicts it, which is what lets the micro-batch
    bisection isolate it deterministically.
    """

    def __init__(self, model, rate: float = 0.02, seed: int = 0):
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must lie in [0, 1], got {rate}")
        self.model = model
        self.rate = rate
        self.seed = seed

    def poisoned_mask(self, X) -> np.ndarray:
        """Boolean mask of poisoned rows in an encoded matrix."""
        codes = np.ascontiguousarray(gathered(X).codes, dtype=np.int64)
        salt = str(self.seed).encode()
        threshold = int(self.rate * 2**32)
        return np.fromiter(
            (
                zlib.crc32(salt + codes[i].tobytes()) < threshold
                for i in range(codes.shape[0])
            ),
            dtype=bool,
            count=codes.shape[0],
        )

    def predict(self, X) -> np.ndarray:
        poisoned = np.flatnonzero(self.poisoned_mask(X))
        if poisoned.size:
            raise PoisonedRowError(
                f"injected poisoned row(s) at batch position(s) "
                f"{poisoned.tolist()[:8]} of {X.n_rows}"
            )
        return self.model.predict(X)

    def __getattr__(self, name: str):
        # Everything predict-adjacent (predict_proba, classes_, ...)
        # delegates to the wrapped model.
        return getattr(self.model, name)
