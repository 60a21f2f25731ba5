"""The benchmark's three workloads.

Each workload is a class with the same life cycle:

- ``setup(seed)``: build the inputs from the seed (timed as ``setup_s``);
- ``prepare(traced)``: untimed extras, such as the serving reference;
- ``unit(traced, probe)``: one unit of work, returning a :class:`Unit`;
  the work it times is bracketed by calls of ``probe``
  (``hostspeed.timed``);
- ``check(unit)``: the number of wrong outputs in the unit, and why;
- ``layer_extras(units)``: per-layer numbers read off the program's own
  counters (cache hit rates, batch sizes) for the traced units;
- ``summary(outputs)`` / ``matches(stored, summary)``: the golden check
  against ``reference.json``;
- ``close()``.

Every knob a workload does not need is left at the library default
(engine, workers, prefetch, cache capacity, batch size, flush deadline),
so a change of default is measured.  ``SIZES`` holds the full size the
benchmark runs at and a tiny one for the harness tests and the golden
check.  ``compute_bound_latency`` says whether the operations' latencies
are compute time, which the runner scales by host speed like
``seconds``, or open-loop waits at a fixed rate, which it reports as
measured.  ``inputs`` is how many inputs successive units cycle
through (``Unit.key``).
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.strategies import join_all_strategy, no_join_strategy
from repro.data import SourceSpec
from repro.datasets import generate_real_world
from repro.experiments.config import get_scale
from repro.experiments.runner import fit_pipeline, run_experiment
from repro.ml.linear import L1LogisticRegression
from repro.serving import PredictionServer, artifact_from_pipeline
from repro.streaming import StreamingTrainer

import hostspeed


@dataclass
class Unit:
    """The outcome of one unit of work.

    ``seconds`` is the unit's headline time (``work_s``) and ``host_s``
    the calibration kernel's time around it (see ``hostspeed.py``);
    ``wall`` is the wall time of the whole unit, set by the runner.
    ``latencies_ms`` holds one latency per operation,
    ``attempted``/``failed`` count operations (an operation that raised
    is failed), and ``outputs`` is what the checks compare.  ``key``
    names the input the unit ran on, when a workload cycles through
    several.
    """

    seconds: float
    latencies_ms: list[float]
    attempted: int
    failed: int
    outputs: object
    wall: float = 0.0
    host_s: float = 0.0
    extra: dict = field(default_factory=dict)
    key: int = 0


class Failed:
    """The output of an operation that raised, in place of its result."""

    __slots__ = ("message",)

    def __init__(self, error: Exception):
        self.message = f"{type(error).__name__}: {error}"

    def __repr__(self) -> str:
        return f"Failed({self.message!r})"


class StreamFista:
    """Exact streamed FISTA L1 logistic regression over Expedia, JoinAll."""

    name = "stream_fista"
    compute_bound_latency = True
    inputs = 1
    SIZES = {
        "full": {"n_fact": 100_000, "shard_rows": 10_000, "iterations": 10},
        "tiny": {"n_fact": 2_000, "shard_rows": 300, "iterations": 3},
    }
    #: Streamed and in-memory FISTA differ only in floating-point
    #: association across shards.
    ATOL = 1e-9

    def __init__(self, size: str = "full"):
        self.config = self.SIZES[size]
        self._reference = None

    def setup(self, seed: int) -> None:
        self.dataset = generate_real_world(
            "expedia", n_fact=self.config["n_fact"], seed=seed
        )
        spec = SourceSpec(shard_rows=self.config["shard_rows"])
        self.source = spec.split_sources(
            self.dataset, join_all_strategy(), splits=("train",)
        )["train"]

    def prepare(self, traced: bool) -> None:
        pass

    def _model(self) -> L1LogisticRegression:
        return L1LogisticRegression(
            tol=0.0, max_iter=self.config["iterations"]
        )

    def unit(self, traced: bool, probe) -> Unit:
        model = self._model()
        try:
            _, seconds, host_s = hostspeed.timed(
                probe, StreamingTrainer(model).fit, self.source
            )
        except Exception as error:  # counted as a failed fit
            return Unit(0.0, [], 1, 1, Failed(error))
        outputs = (model.coef_.copy(), float(model.intercept_))
        return Unit(seconds, [1000.0 * seconds], 1, 0, outputs, host_s=host_s)

    def check(self, unit: Unit) -> tuple[int, str | None]:
        """Coefficients against the in-memory fit of the same rows.

        The reference is built on first use, after the measurement, so
        its materialised matrices do not count into ``peak_rss_mb``.
        """
        if isinstance(unit.outputs, Failed):
            return 0, unit.outputs.message
        if self._reference is None:
            matrices = join_all_strategy().matrices(self.dataset)
            model = self._model().fit(matrices.X_train, matrices.y_train)
            self._reference = (model.coef_, float(model.intercept_))
        coef, intercept = unit.outputs
        ref_coef, ref_intercept = self._reference
        error = max(
            float(np.max(np.abs(coef - ref_coef), initial=0.0)),
            abs(intercept - ref_intercept),
        )
        if error > self.ATOL:
            return 1, (
                f"streamed coefficients differ from the in-memory fit by "
                f"{error:.3g} (tolerance {self.ATOL})"
            )
        return 0, None

    def layer_extras(self, units: list[Unit], tracer) -> dict:
        encodes = tracer.stats.get("data.encode_shard")
        calls = encodes.calls / len(units) if encodes else 0.0
        return {
            # Each fit visits every shard, so the distinct shards a fit
            # encodes is the shard count.
            "data.encode_shard.unique_ratio": (
                self.source.n_shards / calls if calls else 0.0
            ),
            "data.dim_cache.hit_rate": self.source.encoder.cache.stats.hit_rate,
        }

    def summary(self, outputs) -> dict:
        coef, intercept = outputs
        return {"coef": [float(c) for c in coef], "intercept": intercept}

    def matches(self, stored: dict, summary: dict) -> bool:
        coef = np.asarray(summary["coef"])
        ref = np.asarray(stored["coef"])
        return (
            coef.shape == ref.shape
            and bool(np.all(np.abs(coef - ref) <= self.ATOL))
            and abs(summary["intercept"] - stored["intercept"]) <= self.ATOL
        )

    def close(self) -> None:
        self.source.close()


class PaperCells:
    """The Table-2 loop in memory: four models x {JoinAll, NoJoin} on Yelp.

    How long the tuned cells take depends on the data (SMO converges in
    more or fewer passes), so the seed draws ``DATASETS`` datasets and
    successive units cycle through them: a run's figures then stand for
    several datasets rather than one.  Plain and traced units keep
    separate turns, so both see the same datasets in the same order.
    """

    name = "paper_cells"
    compute_bound_latency = True
    MODELS = ("dt_gini", "svm_rbf", "ann", "lr_l1")
    #: One dataset's sweep costs up to 15% more or less than another's,
    #: so the mean over 4 datasets still moved ~12% from seed to seed.
    DATASETS = inputs = 8
    SIZES = {
        "full": {"n_fact": 1_600, "scale": "default"},
        "tiny": {"n_fact": 400, "scale": "smoke"},
    }

    def __init__(self, size: str = "full"):
        self.config = self.SIZES[size]
        self._turn = {False: 0, True: 0}
        self._first: dict[int, dict] = {}

    def setup(self, seed: int) -> None:
        self.datasets = [
            generate_real_world("yelp", n_fact=self.config["n_fact"], seed=child)
            for child in np.random.SeedSequence(seed).spawn(self.DATASETS)
        ]
        self.scale = get_scale(self.config["scale"])

    def prepare(self, traced: bool) -> None:
        pass

    def unit(self, traced: bool, probe) -> Unit:
        index = self._turn[traced] % self.DATASETS
        self._turn[traced] += 1
        (accuracies, latencies, failed), seconds, host_s = hostspeed.timed(
            probe, self._sweep, self.datasets[index]
        )
        return Unit(
            seconds, latencies, len(accuracies), failed, (index, accuracies),
            host_s=host_s, key=index,
        )

    def _sweep(self, dataset) -> tuple[dict, list[float], int]:
        accuracies: dict[str, object] = {}
        latencies = []
        failed = 0
        for model in self.MODELS:
            for strategy in (join_all_strategy(), no_join_strategy()):
                key = f"{model}/{strategy.name}"
                cell_started = time.perf_counter()
                try:
                    result = run_experiment(
                        dataset, model, strategy, scale=self.scale
                    )
                except Exception as error:  # counted as a failed cell
                    accuracies[key] = Failed(error)
                    failed += 1
                    continue
                latencies.append(1000.0 * (time.perf_counter() - cell_started))
                accuracies[key] = result.test_accuracy
        return accuracies, latencies, failed

    def check(self, unit: Unit) -> tuple[int, str | None]:
        """Test accuracies exactly equal to the first sweep of the dataset."""
        index, accuracies = unit.outputs
        first = self._first.setdefault(index, accuracies)
        wrong = [
            key for key, value in accuracies.items()
            if not isinstance(value, Failed) and value != first.get(key)
        ]
        if wrong:
            return len(wrong), (
                f"test accuracy on dataset {index} changed between sweeps: "
                f"{wrong}"
            )
        return 0, None

    def layer_extras(self, units: list[Unit], tracer) -> dict:
        return {}

    def summary(self, outputs) -> dict:
        index, accuracies = outputs
        return {"dataset": index, "test_accuracy": dict(accuracies)}

    def matches(self, stored: dict, summary: dict) -> bool:
        return stored == summary

    def close(self) -> None:
        pass


def _predictions_digest(predictions: list) -> str:
    return hashlib.sha256(repr(predictions).encode()).hexdigest()


class ServeJoinAll:
    """A JoinAll ``dt_gini`` artifact on Flights, served through ``submit``.

    One unit is a saturation phase (a closed loop from one client
    thread holding ``window`` requests in flight) followed by an
    open-loop phase at a fixed rate (one generator thread on a schedule,
    one waiter thread).  Open-loop latency runs from each request's due
    time, so a stalled generator shows up in it; how late the generator
    ran is recorded separately.
    """

    name = "serve_joinall"
    compute_bound_latency = False
    inputs = 1
    SIZES = {
        "full": {
            "n_fact": 4_000, "scale": "default", "warmup": 2_000,
            "saturation": 10_000, "window": 128,
            # 20-40% of the saturation rate on a shared 2-CPU host, as
            # its speed varies: well below saturation even in a slow
            # phase, so the queue does not grow.
            "rate": 4_000.0, "open_seconds": 1.0,
        },
        "tiny": {
            "n_fact": 600, "scale": "smoke", "warmup": 100,
            "saturation": 300, "window": 32,
            "rate": 2_000.0, "open_seconds": 0.1,
        },
    }
    #: How long a waiting client gives one prediction before failing it.
    RESULT_TIMEOUT_S = 30.0

    def __init__(self, size: str = "full"):
        self.config = self.SIZES[size]
        self.server = None
        self.traced_server = None

    def setup(self, seed: int) -> None:
        self.dataset = generate_real_world(
            "flights", n_fact=self.config["n_fact"], seed=seed
        )
        pipeline = fit_pipeline(
            self.dataset, "dt_gini", join_all_strategy(),
            scale=get_scale(self.config["scale"]),
        )
        self.artifact = artifact_from_pipeline(pipeline, self.dataset.schema)
        self.server = self._server()
        fact = self.dataset.schema.fact
        columns = self.server.features.required_columns
        labels = {column: fact.column(column).labels() for column in columns}
        self.requests = [
            {column: labels[column][row] for column in columns}
            for row in self.dataset.test
        ]
        self._saturate(self.server, self.config["warmup"])

    def _server(self) -> PredictionServer:
        return PredictionServer(self.artifact, self.dataset.schema)

    def prepare(self, traced: bool) -> None:
        """The reference predictions, and a second server for traced units.

        Traced units run on their own server so its counters (queue
        wait, batch sizes, flushes) describe traced units only.
        """
        reference = PredictionServer(
            self.artifact, self.dataset.schema,
            max_wait_s=None, background_flush=False,
        )
        try:
            self.reference = reference.predict_batch(self.requests)
        finally:
            reference.close()
        if traced:
            self.traced_server = self._server()
            self._saturate(self.traced_server, self.config["warmup"])

    def _saturate(self, server, count: int) -> tuple[list, int]:
        """Closed loop: keep ``window`` requests in flight from one thread."""
        requests, n = self.requests, len(self.requests)
        predictions: list = [None] * count
        failed = 0
        in_flight: deque = deque()

        def claim():
            nonlocal failed
            index, handle = in_flight.popleft()
            try:
                predictions[index] = handle.result(
                    timeout=self.RESULT_TIMEOUT_S
                )
            except Exception as error:  # counted as a failed request
                predictions[index] = Failed(error)
                failed += 1

        for index in range(count):
            if len(in_flight) >= self.config["window"]:
                claim()
            try:
                handle = server.submit(requests[index % n])
            except Exception as error:  # counted as a failed request
                handle = _FailedHandle(error)
            in_flight.append((index, handle))
        while in_flight:
            claim()
        return predictions, failed

    def _open_loop(self, server) -> tuple[list, list, list, int]:
        """Submit on a fixed schedule; a waiter thread claims results."""
        requests, n = self.requests, len(self.requests)
        rate = self.config["rate"]
        count = max(1, int(rate * self.config["open_seconds"]))
        predictions: list = [None] * count
        latencies = [0.0] * count
        late = [0.0] * count
        failures = [0]
        pending: queue.SimpleQueue = queue.SimpleQueue()

        def waiter():
            for _ in range(count):
                index, due, handle = pending.get()
                try:
                    predictions[index] = handle.result(
                        timeout=self.RESULT_TIMEOUT_S
                    )
                except Exception as error:  # counted as a failed request
                    predictions[index] = Failed(error)
                    failures[0] += 1
                latencies[index] = 1000.0 * (time.perf_counter() - due)

        thread = threading.Thread(target=waiter, name="bench-waiter")
        thread.start()
        try:
            start = time.perf_counter() + 0.001
            for index in range(count):
                due = start + index / rate
                ahead = due - time.perf_counter()
                if ahead > 0:
                    time.sleep(ahead)
                sent = time.perf_counter()
                late[index] = 1000.0 * max(0.0, sent - due)
                try:
                    handle = server.submit(requests[index % n])
                except Exception as error:  # counted as a failed request
                    handle = _FailedHandle(error)
                pending.put((index, due, handle))
        finally:
            thread.join()
        return predictions, latencies, late, failures[0]

    def unit(self, traced: bool, probe) -> Unit:
        server = self.traced_server if traced else self.server
        (saturated, failed), seconds, host_s = hostspeed.timed(
            probe, self._saturate, server, self.config["saturation"]
        )
        opened, latencies, late, open_failed = self._open_loop(server)
        return Unit(
            seconds,
            latencies,
            len(saturated) + len(opened),
            failed + open_failed,
            (saturated, opened),
            host_s=host_s,
            extra={"late_ms": late},
        )

    def check(self, unit: Unit) -> tuple[int, str | None]:
        """Predictions identical to ``predict_batch`` over the same rows."""
        reference, n = self.reference, len(self.reference)
        wrong = 0
        for predictions in unit.outputs:
            for index, prediction in enumerate(predictions):
                if isinstance(prediction, Failed):
                    continue  # already counted as failed
                if prediction != reference[index % n]:
                    wrong += 1
        if wrong:
            return wrong, f"{wrong} served predictions differ from predict_batch"
        return 0, None

    def layer_extras(self, units: list[Unit], tracer) -> dict:
        stats = self.traced_server.stats()
        late = np.concatenate([u.extra["late_ms"] for u in units])
        return {
            "data.dim_cache.hit_rate": stats.cache_hit_rate,
            "serving.queue_wait.p50_ms": stats.latency_ms["queue_wait"]["p50"],
            "serving.batch_rows": stats.mean_batch_rows,
            "serving.flushes": stats.batches_flushed / len(units),
            "load.gen_late.p99_ms": float(np.percentile(late, 99)),
        }

    def summary(self, outputs) -> dict:
        saturated, opened = outputs
        return {"predictions_sha256": _predictions_digest(saturated + opened)}

    def matches(self, stored: dict, summary: dict) -> bool:
        return stored == summary

    def close(self) -> None:
        for server in (self.server, self.traced_server):
            if server is not None:
                server.close()
        self.server = self.traced_server = None


class _FailedHandle:
    """Stands in for a handle whose ``submit`` raised."""

    def __init__(self, error: Exception):
        self.error = error

    def result(self, timeout=None):
        raise self.error


WORKLOADS = {w.name: w for w in (StreamFista, PaperCells, ServeJoinAll)}
