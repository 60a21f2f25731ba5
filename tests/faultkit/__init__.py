"""Test-side fault tooling: seeded faults, bounded retries, kill/resume.

No fit and no prediction in :mod:`repro` runs this code; the tests use
it to check that the library's recovery paths hold bit for bit:

- :mod:`faultkit.faults` — seeded :class:`~faultkit.faults.FaultSchedule`
  plans, the :class:`~faultkit.faults.FaultInjectingSource` /
  :class:`~faultkit.faults.FaultInjectingModel` decorators that execute
  them, and the injected :class:`~faultkit.faults.TransientShardError`
  and :class:`~faultkit.faults.PoisonedRowError`.
- :mod:`faultkit.retry` — :class:`~faultkit.retry.RetryPolicy` and
  :class:`~faultkit.retry.RetryingSource`: bounded attempts with seeded
  exponential backoff around shard reads.
- :mod:`faultkit.backoff` — the kit's one ``time.sleep`` chokepoint
  (allowlisted by the ``raw-sleep`` lint rule).
- :mod:`faultkit.chaos` — the chaos leg: training clean, under faults
  and through a :class:`~faultkit.chaos.KillSwitchCheckpoint` kill and
  resume.  It returns a verdict whose ``ok`` holds only when the
  answers match the clean run.

The tests import it as ``faultkit``: pytest puts ``tests/`` on
``sys.path`` when it loads ``tests/conftest.py``.
"""
