"""Fast checks of the benchmark's own logic: fake clocks, no real load."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from perfbench import layers, stats, tracing
from perfbench.serve import link_server_spans


class FakeClock:
    """A monotonic nanosecond clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def _span(span_id, parent, start, end, name="x", **attrs):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent,
        "trace_id": span_id,
        "start_ns": start,
        "end_ns": end,
        "pid": 1,
        "attrs": attrs,
    }


# --------------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------------- #
def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 90.0) == 90  # ten samples (91..100) beyond
    assert stats.percentile(values[:99], 90.0) is None  # only nine beyond
    assert stats.percentile(list(range(20)), 50.0) == 9
    assert stats.percentile(list(range(19)), 50.0) is None
    assert stats.percentile([], 50.0) is None


def test_summarize_reports_count_and_highest_supported_tail():
    summary = stats.summarize([float(v) for v in range(1000)])
    assert summary["n"] == 1000
    assert summary["p50"] == 499.0
    assert summary["tail_pct"] == 99.0 and summary["tail"] == 989.0
    small = stats.summarize([1.0] * 15)
    assert small == {"n": 15, "p50": None, "tail_pct": None, "tail": None}


# --------------------------------------------------------------------------- #
# Open loop
# --------------------------------------------------------------------------- #
def test_poisson_due_times_start_at_zero_rise_and_repeat_per_seed():
    dues = stats.poisson_due_times(20.0, 2000, np.random.default_rng(3))
    assert dues[0] == 0.0 and len(dues) == 2000
    assert all(b >= a for a, b in zip(dues, dues[1:]))
    assert dues[-1] / (len(dues) - 1) == pytest.approx(1 / 20.0, rel=0.1)
    assert dues == stats.poisson_due_times(20.0, 2000, np.random.default_rng(3))


def test_latency_counts_from_due_time_and_lateness_from_send():
    sent = stats.Sent(due=1.0, start=1.25, end=1.30)
    assert sent.lateness == pytest.approx(0.25)
    assert sent.latency == pytest.approx(0.30)  # the stall before sending counts
    assert stats.Sent(due=1.0, start=1.0, end=None).latency == math.inf


def test_meets_limit_fails_on_slow_tail_failure_or_growing_backlog():
    def phase(latencies, lateness=lambda i: 0.0):
        return [stats.Sent(i, i + lateness(i), i + lat) for i, lat in enumerate(latencies)]

    fast = phase([0.01] * 110)
    assert stats.meets_limit(fast, limit=0.1)
    assert not stats.meets_limit(fast[:99], limit=0.1)  # p90 unsupported
    slow_tail = phase([0.01] * 95 + [0.5] * 15)
    assert not stats.meets_limit(slow_tail, limit=0.1)
    failed = fast[:95] + [stats.Sent(i, i, None) for i in range(95, 110)]
    assert not stats.meets_limit(failed, limit=0.1)
    # Every request still answered fast once sent, but the generator falls
    # further behind: the last quarter waits too long to be sent at all.
    backlog = phase([0.01] * 110, lateness=lambda i: 0.001 * i)
    answered = [stats.Sent(s.due, s.start, s.start + 0.001) for s in backlog]
    assert not stats.meets_limit(answered, 0.1)


def test_trimmed_mean_drops_the_tails_before_averaging():
    values = [float(v) for v in range(1, 10)] + [1000.0]  # one stall among ten
    assert stats.trimmed_mean(values) == pytest.approx(sum(range(2, 10)) / 8)
    assert stats.trimmed_mean(values, trim=0.0) == pytest.approx(sum(values) / 10)
    assert stats.trimmed_mean([4.0, 2.0]) == 3.0  # too few to trim: plain mean
    with pytest.raises(ValueError):
        stats.trimmed_mean([])


# --------------------------------------------------------------------------- #
# Failures
# --------------------------------------------------------------------------- #
def test_tally_counts_every_attempt_and_failure():
    tally = stats.Tally()
    for ok in (True, True, False, True):
        tally.record(ok, "boom")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_share == 0.25 and tally.ok_share == 0.75
    assert tally.problems == ["boom"]
    assert stats.Tally().failed_share == 1.0  # nothing attempted is not a pass


# --------------------------------------------------------------------------- #
# Spans and self time
# --------------------------------------------------------------------------- #
def test_tracer_nests_spans_on_a_fake_clock():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    with tracer.span("bench.op"):
        clock.advance(10)
        with tracer.span("core.step"):
            clock.advance(30)
        clock.advance(5)
    step, op = tracer.spans
    assert step["parent_id"] == op["span_id"] and step["trace_id"] == op["trace_id"]
    assert tracing.duration_ns(op) == 45 and tracing.duration_ns(step) == 30
    assert tracing.self_times(tracer.spans) == {op["span_id"]: 15, step["span_id"]: 30}


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        _span("r", None, 0, 100),
        _span("a", "r", 10, 60),
        _span("b", "r", 40, 80),  # overlaps a: a worker in parallel
        _span("c", "a", 20, 30),
        _span("late", "r", 90, 150),  # runs past its parent: clipped
    ]
    own = tracing.self_times(spans)
    assert own["r"] == 100 - (70 + 10)
    assert own["a"] == 40 and own["b"] == 40 and own["c"] == 10 and own["late"] == 60


def test_span_metrics_share_and_coverage():
    ms = 1_000_000
    spans = [
        _span("root", None, 0, 100 * ms, name="bench.fit"),
        _span("s1", "root", 0, 40 * ms, name="core.step"),
        _span("s2", "root", 50 * ms, 80 * ms, name="core.step"),
        _span("orphan", None, 0, 10 * ms, name="serve.pool.sample_batch"),
    ]
    metrics = layers.span_metrics(spans)
    assert metrics["core.step_ms"] == pytest.approx(35.0)
    assert metrics["core.step_ms.calls"] == 2
    assert metrics["core.step_ms.share"] == pytest.approx(0.7)
    assert metrics["coverage"] == pytest.approx(0.7)  # the orphan is outside every bench tree
    assert metrics["neural.adam.step_ms"] == 0.0


def test_patch_wraps_and_restores():
    class Owner:
        def work(self, x):
            return x + 1

    tracer = tracing.Tracer(clock=FakeClock())
    undo = tracing.patch(Owner, "work", tracer, "core.work", lambda self, x: {"x": x})
    assert Owner().work(2) == 3
    assert tracer.spans[0]["name"] == "core.work" and tracer.spans[0]["attrs"] == {"x": 2}
    undo()
    Owner().work(2)
    assert len(tracer.spans) == 1


def test_span_with_explicit_parent_joins_another_threads_trace():
    tracer = tracing.Tracer(clock=FakeClock())
    with tracer.span("runtime.map_with_quorum") as dispatch:
        parent = tracer.current()
        results = []

        def site():
            with tracer.span("federated.site_round", parent=parent) as record:
                results.append(record)

        thread = threading.Thread(target=site)
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert results[0]["parent_id"] == dispatch["span_id"]
    assert results[0]["trace_id"] == dispatch["trace_id"]


def test_server_spans_join_the_client_request_by_seed():
    spans = [
        _span("req", None, 0, 100, name="bench.request", seed=7),
        _span("sock", "req", 0, 90, name="serve.socket"),
        _span("h", None, 10, 40, name="serve.handler"),
        _span("adm", "h", 10, 12, name="serve.admit", seed=7),
        _span("aw", "h", 12, 38, name="serve.await_result", seed=7),
        _span("m", None, 14, 30, name="serve.model.sample", seed=7),
    ]
    link_server_spans(spans)
    by_id = {s["span_id"]: s for s in spans}
    assert by_id["h"]["parent_id"] == "sock" and by_id["m"]["parent_id"] == "aw"
    assert {s["trace_id"] for s in spans} == {"req"}
    own = tracing.self_times(spans)
    assert own["sock"] == 90 - 30  # the socket keeps the wait outside the handler
