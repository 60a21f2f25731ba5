"""Micro-batcher flush semantics, ordering, accounting, and threading.

Deterministic tests drive the inline mode (``background_flush=False``),
which preserves the pre-concurrency semantics exactly: deadlines are
checked on ``submit``/``poll`` and ``result()`` forces a flush.  The
background mode (a real deadline-flusher thread) is covered with real
clocks and generous timeouts at the end.
"""

import threading
import time

import pytest

from repro.serving import MicroBatcher


def doubling_batch_fn(payloads):
    return [p * 2 for p in payloads]


def inline_batcher(batch_fn=doubling_batch_fn, **kwargs):
    kwargs.setdefault("background_flush", False)
    return MicroBatcher(batch_fn, **kwargs)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSizeTrigger:
    def test_flushes_exactly_at_max_batch_size(self):
        batcher = inline_batcher(max_batch_size=4, max_wait_s=None)
        handles = [batcher.submit(i) for i in range(3)]
        assert not any(h.done() for h in handles)
        handles.append(batcher.submit(3))
        assert all(h.done() for h in handles)
        assert batcher.stats.flush_reasons == {"size": 1}
        assert len(batcher) == 0

    def test_results_delivered_in_submission_order(self):
        batcher = inline_batcher(max_batch_size=8, max_wait_s=None)
        handles = [batcher.submit(i) for i in range(8)]
        assert [h.result() for h in handles] == [2 * i for i in range(8)]


class TestDeadlineTrigger:
    def test_stale_queue_flushes_on_next_submit(self):
        clock = FakeClock()
        batcher = inline_batcher(
            max_batch_size=100, max_wait_s=1.0, clock=clock
        )
        first = batcher.submit(1)
        clock.advance(0.5)
        second = batcher.submit(2)
        assert not first.done() and not second.done()
        clock.advance(0.6)  # oldest is now 1.1s old
        third = batcher.submit(3)
        assert first.done() and second.done() and third.done()
        assert batcher.stats.flush_reasons == {"deadline": 1}

    def test_poll_flushes_stale_queue(self):
        clock = FakeClock()
        batcher = inline_batcher(
            max_batch_size=100, max_wait_s=1.0, clock=clock
        )
        pending = batcher.submit(5)
        assert batcher.poll() is False
        clock.advance(2.0)
        assert batcher.poll() is True
        assert pending.result() == 10

    def test_no_deadline_when_disabled(self):
        clock = FakeClock()
        batcher = inline_batcher(
            max_batch_size=100, max_wait_s=None, clock=clock
        )
        pending = batcher.submit(1)
        clock.advance(1e9)
        assert batcher.poll() is False
        assert not pending.done()

    def test_zero_wait_degenerates_to_per_row_flushes(self):
        clock = FakeClock()
        batcher = inline_batcher(
            max_batch_size=100, max_wait_s=0.0, clock=clock
        )
        assert batcher.submit(1).done()
        assert batcher.submit(2).done()
        assert batcher.stats.flushes == 2


class TestForcedFlush:
    def test_result_forces_flush(self):
        batcher = inline_batcher(max_batch_size=100, max_wait_s=None)
        a = batcher.submit(1)
        b = batcher.submit(2)
        assert a.result() == 2  # forces the whole queue
        assert b.done() and b.result() == 4
        assert batcher.stats.flush_reasons == {"forced": 1}

    def test_result_forces_flush_without_flusher_thread(self):
        # background_flush=True but max_wait_s=None: no deadline thread
        # exists, so result() must still force delivery.
        batcher = MicroBatcher(
            doubling_batch_fn, max_batch_size=100, max_wait_s=None
        )
        assert batcher.submit(3).result() == 6

    def test_explicit_flush_and_empty_flush(self):
        batcher = inline_batcher(max_batch_size=100, max_wait_s=None)
        batcher.submit(1)
        batcher.submit(2)
        assert batcher.flush() == 2
        assert batcher.flush() == 0
        assert batcher.stats.flushes == 1


class TestAccounting:
    def test_stats_track_batch_sizes(self):
        batcher = inline_batcher(max_batch_size=3, max_wait_s=None)
        for i in range(7):
            batcher.submit(i)
        batcher.flush()
        stats = batcher.stats
        assert stats.submitted == 7
        assert stats.rows_flushed == 7
        assert stats.flushes == 3  # 3 + 3 + 1
        assert stats.max_batch == 3
        assert stats.mean_batch == pytest.approx(7 / 3)
        assert stats.flush_reasons == {"size": 2, "explicit": 1}
        assert stats.failed_flushes == 0
        assert stats.rows_failed == 0

    def test_failed_flush_is_accounted(self):
        """Regression: a failing batch must show up in the stats.

        Before the fix, flushes/rows_flushed were only bumped on
        success, so after any batch error ``submitted`` permanently
        disagreed with ``rows_flushed`` and nothing recorded the
        failure.
        """

        def poisoned(payloads):
            raise RuntimeError("poison row")

        batcher = inline_batcher(poisoned, max_batch_size=2, max_wait_s=None)
        batcher.submit(1)
        with pytest.raises(RuntimeError, match="poison row"):
            batcher.submit(2)
        stats = batcher.stats
        assert stats.submitted == 2
        assert stats.flushes == 0 and stats.rows_flushed == 0
        assert stats.failed_flushes == 1
        assert stats.rows_failed == 2
        assert stats.failure_reasons == {"RuntimeError": 1}
        # Accounting reconciles: every submitted row is either queued,
        # flushed, or failed.
        assert stats.rows_flushed + stats.rows_failed == stats.submitted

    def test_queue_wait_accounted_exactly_per_row(self):
        """Regression: queued time must land in the latency accounting.

        An earlier ``mean_latency_ms`` summed only assemble + predict
        time, silently under-reporting what a ``submit()`` caller
        actually waited.  With a fake clock the wait is exact: two rows
        queued, the clock advanced 3 s, so both the ``queue_wait_s``
        and end-to-end ``request_s`` histograms must read 3 s per row.
        """
        clock = FakeClock()
        batcher = inline_batcher(
            max_batch_size=100, max_wait_s=None, clock=clock
        )
        batcher.submit(1)
        batcher.submit(2)
        clock.advance(3.0)
        batcher.flush()
        queue_wait = batcher.metrics.histogram("serving.latency.queue_wait_s")
        request = batcher.metrics.histogram("serving.latency.request_s")
        assert queue_wait.count == 2
        assert queue_wait.sum == pytest.approx(6.0)
        assert queue_wait.min == pytest.approx(3.0)
        assert request.count == 2
        assert request.sum >= queue_wait.sum  # delivery can only add

    def test_pending_submissions_visible_before_flush(self):
        """stats.submitted must include rows still sitting in the queue."""
        batcher = inline_batcher(max_batch_size=100, max_wait_s=None)
        batcher.submit(1)
        batcher.submit(2)
        assert batcher.stats.submitted == 2
        batcher.flush()
        assert batcher.stats.submitted == 2


class TestValidation:
    def test_bad_batch_fn_arity_detected(self):
        batcher = inline_batcher(
            lambda payloads: [1], max_batch_size=2, max_wait_s=None
        )
        batcher.submit("a")
        with pytest.raises(ValueError, match="returned 1 results for 2"):
            batcher.submit("b")  # size trigger flushes inline
        assert batcher.stats.failure_reasons == {"ValueError": 1}

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(doubling_batch_fn, max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            MicroBatcher(doubling_batch_fn, max_wait_s=-1.0)

    def test_failed_batch_propagates_to_every_handle(self):
        """A poison batch must not silently drop co-batched predictions."""

        def poisoned(payloads):
            raise RuntimeError("poison row")

        batcher = inline_batcher(poisoned, max_batch_size=2, max_wait_s=None)
        first = batcher.submit(1)
        with pytest.raises(RuntimeError, match="poison row"):
            batcher.submit(2)  # size trigger flushes inline and raises
        assert first.done()
        with pytest.raises(RuntimeError, match="poison row"):
            first.result()
        assert len(batcher) == 0  # failed rows are not re-queued


class TestBackgroundFlusher:
    """Real-clock coverage of the deadline-flusher thread."""

    def test_deadline_fires_without_submit_or_poll(self):
        with MicroBatcher(
            doubling_batch_fn, max_batch_size=100, max_wait_s=0.01
        ) as batcher:
            pending = batcher.submit(21)
            # No further submit/poll: only the flusher can deliver this.
            assert pending.result(timeout=5.0) == 42
            assert batcher.stats.flush_reasons == {"deadline": 1}

    def test_result_blocks_until_flusher_delivers(self):
        with MicroBatcher(
            doubling_batch_fn, max_batch_size=100, max_wait_s=0.05
        ) as batcher:
            started = time.monotonic()
            pending = batcher.submit(1)
            assert pending.result(timeout=5.0) == 2
            assert time.monotonic() - started >= 0.04

    def test_result_timeout_raises(self):
        release = threading.Event()

        def slow(payloads):
            release.wait(5.0)
            return list(payloads)

        batcher = MicroBatcher(slow, max_batch_size=100, max_wait_s=0.001)
        try:
            pending = batcher.submit(1)
            with pytest.raises(TimeoutError):
                pending.result(timeout=0.05)
        finally:
            release.set()
            batcher.close()

    def test_flusher_survives_batch_errors(self):
        calls = []

        def flaky(payloads):
            calls.append(list(payloads))
            if len(calls) == 1:
                raise RuntimeError("transient")
            return [p * 2 for p in payloads]

        with MicroBatcher(
            flaky, max_batch_size=100, max_wait_s=0.01
        ) as batcher:
            first = batcher.submit(1)
            with pytest.raises(RuntimeError, match="transient"):
                first.result(timeout=5.0)
            # The daemon thread must survive the error and keep serving.
            second = batcher.submit(2)
            assert second.result(timeout=5.0) == 4
            assert batcher.stats.failed_flushes == 1
            assert batcher.stats.rows_failed == 1

    def test_close_drains_queue_and_rejects_submissions(self):
        batcher = MicroBatcher(
            doubling_batch_fn, max_batch_size=100, max_wait_s=10.0
        )
        pending = batcher.submit(5)
        batcher.close()
        assert pending.result() == 10
        assert batcher.stats.flush_reasons == {"close": 1}
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(6)
        batcher.close()  # idempotent

    def test_racing_result_waits_for_in_flight_batch(self):
        """Regression: with no flusher thread, result() on a handle whose
        batch another thread had already detached used to force-flush an
        empty queue and silently return the unset ``None``."""
        entered = threading.Event()
        release = threading.Event()

        def slow_double(payloads):
            entered.set()
            assert release.wait(5.0)
            return [p * 2 for p in payloads]

        batcher = MicroBatcher(slow_double, max_batch_size=100, max_wait_s=None)
        a = batcher.submit(1)
        b = batcher.submit(2)
        first = threading.Thread(target=a.result, daemon=True)
        first.start()
        assert entered.wait(5.0)  # [a, b] detached, batch fn in flight
        # Claiming b mid-flight must block until the batch delivers.
        got = []
        second = threading.Thread(
            target=lambda: got.append(b.result(timeout=5.0)), daemon=True
        )
        second.start()
        second.join(timeout=0.2)
        assert second.is_alive()  # blocked, not returning None
        release.set()
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        assert got == [4]

    def test_result_timeout_applies_without_flusher_thread(self):
        """The documented TimeoutError must also hold in the no-flusher
        configuration when another thread owns the in-flight batch."""
        entered = threading.Event()
        release = threading.Event()

        def wedged(payloads):
            entered.set()
            assert release.wait(5.0)
            return list(payloads)

        batcher = MicroBatcher(wedged, max_batch_size=100, max_wait_s=None)
        a = batcher.submit(1)
        b = batcher.submit(2)
        threading.Thread(target=a.result, daemon=True).start()
        assert entered.wait(5.0)  # [a, b] detached, batch fn wedged
        try:
            with pytest.raises(TimeoutError):
                b.result(timeout=0.05)
        finally:
            release.set()

    def test_concurrent_submitters_lose_no_rows(self):
        lock = threading.Lock()
        seen = []

        def record(payloads):
            with lock:
                seen.extend(payloads)
            return list(payloads)

        with MicroBatcher(record, max_batch_size=16, max_wait_s=0.005) as b:
            threads = [
                threading.Thread(
                    target=lambda base=base: [
                        b.submit(base * 1000 + i).result(timeout=10.0)
                        for i in range(50)
                    ]
                )
                for base in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(seen) == 400
        assert sorted(seen) == sorted(
            base * 1000 + i for base in range(8) for i in range(50)
        )
        stats = b.stats
        assert stats.submitted == 400
        assert stats.rows_flushed == 400
