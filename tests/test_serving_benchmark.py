"""The serving benchmarks collect garbage before every timed phase.

A phase that crosses the collector's allocation threshold would
otherwise pay for a generation-2 collection the phases before it made
due, and whichever (strategy, path) pair it hit would read slow.
"""

import gc
import time

import pytest

from repro.datasets import generate_real_world
from repro.experiments import get_scale
from repro.serving import benchmark


class _LoggedClock:
    """The benchmark module's ``time``, logging each ``perf_counter`` read."""

    def __init__(self, events):
        self._events = events

    def perf_counter(self):
        self._events.append("clock")
        return time.perf_counter()

    def __getattr__(self, name):
        return getattr(time, name)


@pytest.fixture
def events(monkeypatch):
    """Collections and benchmark clock reads, in order."""
    log = []
    collect = gc.collect

    def logged_collect(*args):
        log.append("collect")
        return collect(*args)

    monkeypatch.setattr(gc, "collect", logged_collect)
    monkeypatch.setattr(benchmark, "time", _LoggedClock(log))
    return log


@pytest.fixture(scope="module")
def yelp():
    return generate_real_world("yelp", n_fact=get_scale("smoke").n_fact, seed=0)


def test_serving_throughput_collects_before_each_timed_phase(events, yelp):
    report = benchmark.serving_throughput(yelp, rows=40, scale=get_scale("smoke"))
    assert len(report.rates) == 4  # (JoinAll, NoJoin) x (single, batched)
    assert events == ["collect", "clock", "clock"] * 4


def test_concurrent_throughput_collects_before_each_timed_phase(events, yelp):
    report = benchmark.concurrent_serving_throughput(
        yelp, rows=40, clients=2, scale=get_scale("smoke")
    )
    assert report.identical
    assert events == ["collect", "clock", "clock"] * 2
