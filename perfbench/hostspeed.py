"""How fast the host runs right now, from a fixed calibration kernel.

On a shared host other tenants slow everything the benchmark runs, by
10–60%, in phases that last from seconds to whole runs.  No estimator
taken inside one run (median, best unit) removes a slowdown that lasts
the whole run.  So the benchmark times a fixed kernel right before and
right after the work it times (:func:`timed`), and reports the work's
time scaled by how much slower the kernel ran around it than it runs
on the reference host::

    scaled = measured * REFERENCE_S / kernel time around the work

The kernel uses numpy and plain Python only and calls no code of the
program under test, so a change to the program moves the scaled time
exactly as it moves the measured one.  It mixes the three kinds of work
the workloads do: gathers and scatter-adds over arrays larger than the
L2 cache (the sparse kernels), small dense products (SVM kernels, the
MLP), and dict and list work in the interpreter (per-request serving,
tree building).  The probes bracket the timed work itself, not the
unit: on serving, probes a second away from the saturation phase
tracked its time too loosely.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's time on the reference host (2 vCPUs of a shared
#: x86-64 server, in a quiet phase).  Scaled times read in seconds of
#: that host.
REFERENCE_S = 0.030


class HostSpeed:
    """The calibration kernel and its inputs, built once."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self._index = rng.integers(0, 50_000, 300_000)
        self._weights = rng.random(300_000)
        self._table = rng.random(50_000)
        self._square = rng.random((64, 64)) / 64.0
        self._keys = [f"k{i}" for i in range(2_000)]

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(8):
            total += float(np.bincount(
                self._index, weights=self._weights, minlength=50_000
            )[0])
            total += float(self._table.take(self._index).sum())
        x = self._square
        for _ in range(600):
            x = np.tanh(self._square @ x)
        total += float(x[0, 0])
        counts: dict[str, int] = {}
        for _ in range(60):
            for key in self._keys:
                counts[key] = counts.get(key, 0) + len(key)
        return total + len(counts)

    def probe(self) -> float:
        """Seconds the kernel takes now."""
        started = time.perf_counter()
        self._kernel()
        return time.perf_counter() - started


def timed(probe, function, *args):
    """``(result, seconds, host_s)`` of ``function(*args)``.

    The call is timed between two calls of ``probe`` (``HostSpeed.probe``),
    and ``host_s`` is their mean: the kernel's time right around the
    work, not a unit's length away from it.
    """
    before = probe()
    started = time.perf_counter()
    result = function(*args)
    seconds = time.perf_counter() - started
    return result, seconds, (before + probe()) / 2.0


def scaled(measured: float, host_s: float) -> float:
    """``measured`` in reference-host units, given the kernel's time."""
    return measured * REFERENCE_S / host_s
