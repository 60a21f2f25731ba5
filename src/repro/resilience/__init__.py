"""Fault tolerance for the training and serving planes.

The resilience layer makes failure a first-class, *testable* subsystem
instead of scattered try/except:

- :mod:`~repro.resilience.faults` — deterministic, seeded fault
  schedules and the :class:`FaultInjectingSource` /
  :class:`FaultInjectingModel` decorators that execute them, so every
  failure mode reproduces exactly in tests, benchmarks and chaos runs.
- :mod:`~repro.resilience.retry` — :class:`RetryPolicy`: bounded
  attempts, seeded exponential-backoff jitter, a retryable-exception
  allowlist; and :class:`RetryingSource`, the one place shard reads
  are retried under a policy.
- :mod:`~repro.resilience.checkpoint` — :class:`CheckpointManager`:
  atomic, checksummed training checkpoints behind
  ``StreamingTrainer(checkpoint=..., resume=True)``, with resumed runs
  bit-identical to uninterrupted ones.
- :mod:`~repro.resilience.backoff` — the one sanctioned ``time.sleep``
  chokepoint (lint-enforced).
- :mod:`~repro.resilience.chaos` — the chaos-soak harness: training and
  serving under a fault schedule, with correctness asserted rather than
  hoped for; :class:`~repro.resilience.chaos.KillSwitchCheckpoint`
  simulates a crash at a chosen checkpoint save.

Everything reports through :mod:`repro.obs` (``resilience.retries``,
``resilience.faults_injected``, ``resilience.checkpoints``,
``serving.shed_requests``), so a run's failure handling is visible in
the same snapshot as its throughput.
"""

from repro.resilience import backoff
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import (
    CORRUPT_SPILL,
    FAULT_KINDS,
    SLOW,
    TRANSIENT,
    FaultInjectingModel,
    FaultInjectingSource,
    FaultSchedule,
    FaultSpec,
    PoisonedRowError,
    corrupt_spill_entries,
)
from repro.resilience.retry import (
    DEFAULT_RETRYABLE,
    RetryingSource,
    RetryPolicy,
)

__all__ = [
    "CORRUPT_SPILL",
    "DEFAULT_RETRYABLE",
    "FAULT_KINDS",
    "SLOW",
    "TRANSIENT",
    "CheckpointManager",
    "FaultInjectingModel",
    "FaultInjectingSource",
    "FaultSchedule",
    "FaultSpec",
    "PoisonedRowError",
    "RetryPolicy",
    "RetryingSource",
    "backoff",
    "corrupt_spill_entries",
]
