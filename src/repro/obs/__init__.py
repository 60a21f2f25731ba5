"""repro.obs — the unified telemetry layer.

One subsystem answers "where did this run spend its time and memory?"
for every layer of the repo:

- :mod:`repro.obs.metrics` — named :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` metrics in thread-safe registries.  Histograms
  share one set of log-scale buckets (8 per octave), reporting
  p50/p95/p99 — the serving plane's latency numbers come from these.
- :mod:`repro.obs.trace` — span-based run tracing: nested, timed
  stages (``fit`` > ``fit.epoch`` > ``fit.shard``) with optional
  tracemalloc peaks, snapshotable as a JSON run report
  (``repro fit --telemetry out.json``).
- :mod:`repro.obs.console` — :func:`emit`, the single console-output
  chokepoint the telemetry lint holds ``src/repro`` to.

Component instances (prediction servers, caches, batchers) keep
*private* registries so their stats stay exact per instance; the
process-wide :func:`registry` holds cross-cutting counters and is what
``repro stats`` prints.  The legacy stats dataclasses (``CacheStats``,
``SpillStats``, ``BatcherStats``, ``ServerStats``) are snapshot views
over these registries — one bookkeeping substrate, many surfaces.
"""

from repro.obs.console import emit
from repro.obs.machine import machine_info
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.trace import Span, Tracer, trace, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "emit",
    "machine_info",
    "registry",
    "trace",
    "tracer",
]
