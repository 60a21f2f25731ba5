"""Per-layer timing by wrapping library functions from outside.

The traced run of the benchmark replaces selected public functions of
``repro`` with timing wrappers for the duration of a ``with`` block and
puts the originals back on exit.  Nothing inside ``src/`` is edited:
the wrappers sit on the class or module attribute that callers look up
at call time, so every call through the normal code path is seen.

For each layer name the tracer records

- ``calls``: how many times a wrapped function under that name ran;
- ``seconds``: inclusive wall time, counted only at the outermost call
  of that name on a thread (so a function that calls itself is not
  counted twice);
- ``self_seconds``: inclusive time minus the time spent in *other*
  wrapped calls made from inside it, per thread;
- ``cells``: an operation count computed from operand shapes, for the
  wrappers given a ``cells`` function (the sparse kernels).

Threads keep their own call stacks, so serving's client, flusher and
waiter threads each attribute their own time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


@dataclass
class LayerStats:
    """Totals for one layer name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    cells: int = 0


class LayerTracer:
    """Wrap functions for timing; a context manager that restores them.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` (a class or a
    module) with a timing wrapper.  ``name`` is the layer name, or a
    function of the call's positional arguments returning it (used to
    attribute a generic tuner call to the model family it tunes).
    """

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str | Callable[[tuple], str],
        cells: Callable[[tuple], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper."""
        try:
            original = vars(owner)[attr]
        except KeyError:
            raise AttributeError(
                f"{owner!r} does not define {attr!r} itself; wrap the "
                f"class or module that does"
            ) from None
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            return tracer._call(label, original, args, kwargs, cells)

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _thread_state(self) -> tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
        return local.stack, local.depth

    def _call(self, label, function, args, kwargs, cells):
        stack, depth = self._thread_state()
        frame = [0.0]  # time spent in wrapped calls made from this one
        stack.append(frame)
        outermost = depth.get(label, 0) == 0
        depth[label] = depth.get(label, 0) + 1
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            depth[label] -= 1
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            count = cells(args) if cells is not None else 0
            with self._lock:
                stats = self.stats.get(label)
                if stats is None:
                    stats = self.stats[label] = LayerStats()
                stats.calls += 1
                if outermost:
                    stats.seconds += elapsed
                stats.self_seconds += elapsed - frame[0]
                stats.cells += count

    def total_self_seconds(self) -> float:
        """Time inside any wrapped call: the sum of every self time."""
        with self._lock:
            return sum(s.self_seconds for s in self.stats.values())


def product_cells(args: tuple) -> int:
    """Operation count of ``A @ W`` or ``A.T @ V`` from operand shapes.

    A one-hot operand (implicit or factorized) has ``n_features``
    non-zeros per row, so the product touches ``rows x n_features``
    entries per right-hand column; a dense operand touches all of its
    ``rows x width`` entries.
    """
    A, other = args[0], np.asarray(args[1])
    columns = 1 if other.ndim == 1 else other.shape[1]
    if isinstance(A, np.ndarray):
        per_row = A.shape[1]
    else:
        per_row = A.n_features
    return int(A.shape[0]) * int(per_row) * columns


def install(tracer: LayerTracer) -> LayerTracer:
    """Wrap the public entry points of every hot-path layer.

    One table for all workloads: a workload simply never calls the
    layers it does not exercise, and their totals stay at zero.
    """
    from repro.core.strategies import JoinStrategy
    from repro.data.encoder import ShardEncoder
    from repro.experiments import runner
    from repro.ml import sparse
    from repro.ml.linear.logistic import L1LogisticRegression
    from repro.ml.neural.mlp import MLPClassifier
    from repro.ml.selection import GridSearch
    from repro.ml.svm import kernels
    from repro.ml.svm.svc import KernelSVC
    from repro.ml.tree import DecisionTreeClassifier
    from repro.serving.artifacts import ModelArtifact
    from repro.serving.server import PredictionServer
    from repro.streaming.shards import ShardedDataset

    families = (
        (DecisionTreeClassifier, "ml.tree.tune"),
        (KernelSVC, "ml.svm.tune"),
        (MLPClassifier, "ml.neural.tune"),
    )

    def tune_layer(args: tuple) -> str:
        """A ``GridSearch.fit`` call, named by the estimator it tunes."""
        estimator = args[0].estimator
        for family, layer in families:
            if isinstance(estimator, family):
                return layer
        return f"ml.{type(estimator).__name__}.tune"

    tracer.wrap(ShardedDataset, "shard", "streaming.shard")
    tracer.wrap(ShardEncoder, "encode_shard", "data.encode_shard")
    tracer.wrap(ShardEncoder, "encode_requests", "data.encode_requests")
    tracer.wrap(ShardEncoder, "assemble", "data.assemble")
    tracer.wrap(sparse, "encode_features", "ml.sparse.encode_features")
    tracer.wrap(sparse, "matmul", "ml.sparse.matmul", cells=product_cells)
    tracer.wrap(sparse, "rmatmul", "ml.sparse.rmatmul", cells=product_cells)
    tracer.wrap(L1LogisticRegression, "fit_stream", "ml.linear.fit_stream")
    tracer.wrap(JoinStrategy, "matrices", "core.matrices")
    tracer.wrap(GridSearch, "fit", tune_layer)
    tracer.wrap(runner.PathTuner, "fit", "ml.linear.tune")
    for kernel in ("linear_kernel", "polynomial_kernel", "rbf_kernel"):
        tracer.wrap(kernels, kernel, "ml.svm.kernel")
    tracer.wrap(runner.FittedPipeline, "result", "experiments.score")
    tracer.wrap(PredictionServer, "submit", "serving.submit")
    tracer.wrap(ModelArtifact, "predict_codes", "serving.predict_codes")
    return tracer
