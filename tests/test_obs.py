"""Unit tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    TraceEvent,
    Tracer,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
)
from repro.obs.tracer import COUNTER, INSTANT, SPAN


class TestTracer:
    def test_disabled_by_default_and_noop(self):
        tr = Tracer()
        assert not tr.enabled
        tr.span("a", ts=0.0, dur=1.0)
        tr.instant("b", ts=0.0)
        tr.counter("c", ts=0.0, value=1.0)
        assert len(tr) == 0
        assert tr.events() == []

    def test_records_when_enabled(self):
        tr = Tracer(enabled=True)
        tr.span("work", ts=10.0, dur=5.0, track="cpu0", cat="sched")
        tr.instant("mark", ts=12.0, track="thread:t1")
        tr.counter("bw", ts=13.0, value=2.5)
        kinds = [e.kind for e in tr.events()]
        assert kinds == [SPAN, INSTANT, COUNTER]
        span = tr.events()[0]
        assert (span.name, span.ts, span.dur, span.track) == (
            "work", 10.0, 5.0, "cpu0"
        )
        counter = tr.events()[2]
        assert counter.args == {"value": 2.5}

    def test_ring_buffer_drops_oldest(self):
        tr = Tracer(capacity=3, enabled=True)
        for i in range(5):
            tr.instant(f"e{i}", ts=float(i))
        assert len(tr) == 3
        assert tr.dropped == 2
        assert [e.name for e in tr.events()] == ["e2", "e3", "e4"]

    def test_clear_resets_everything(self):
        tr = Tracer(capacity=2, enabled=True)
        tr.offset = 100.0
        for i in range(4):
            tr.instant(f"e{i}", ts=float(i))
        tr.clear()
        assert len(tr) == 0
        assert tr.dropped == 0
        assert tr.offset == 0.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_global_swap(self):
        original = get_tracer()
        mine = Tracer(enabled=True)
        try:
            old = set_tracer(mine)
            assert old is original
            assert get_tracer() is mine
        finally:
            set_tracer(original)

    def test_enable_mid_flight(self):
        tr = Tracer()
        tr.span("ignored", ts=0.0, dur=1.0)
        tr.enabled = True
        tr.span("kept", ts=1.0, dur=1.0)
        assert [e.name for e in tr.events()] == ["kept"]


class TestMetricsRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2.5)
        assert m.counter_value("a") == 3.5
        assert m.counter_value("missing") == 0.0

    def test_gauges_last_write_wins(self):
        m = MetricsRegistry()
        assert m.gauge_value("g") is None
        m.gauge("g", 1.0)
        m.gauge("g", 7.0)
        assert m.gauge_value("g") == 7.0

    def test_histograms(self):
        m = MetricsRegistry()
        assert m.histogram("h") is None
        for v in (1.0, 5.0, 3.0):
            m.observe("h", v)
        h = m.histogram("h")
        assert h.count == 3
        assert h.total == 9.0
        assert h.min == 1.0 and h.max == 5.0
        assert h.mean == 3.0

    def test_snapshot_is_plain_and_sorted(self):
        m = MetricsRegistry()
        m.inc("z")
        m.inc("a")
        m.gauge("g", 1.0)
        m.observe("h", 2.0)
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["histograms"]["h"] == {
            "count": 1, "sum": 2.0, "min": 2.0, "max": 2.0
        }
        # Mutating the registry afterwards must not change the snapshot.
        m.inc("a", 10.0)
        assert snap["counters"]["a"] == 1.0

    def test_reset(self):
        m = MetricsRegistry()
        m.inc("a")
        m.observe("h", 1.0)
        m.reset()
        assert m.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_counters_commutative(self):
        snaps = []
        for vals in ((1.0, 3.0), (2.0, 5.0), (4.0, 7.0)):
            w = MetricsRegistry()
            w.inc("x", vals[0])
            w.inc("y", vals[1])
            w.observe("h", vals[0])
            snaps.append(w.snapshot())

        forward = MetricsRegistry()
        for s in snaps:
            forward.merge(s)
        backward = MetricsRegistry()
        for s in reversed(snaps):
            backward.merge(s)
        assert forward.snapshot() == backward.snapshot()
        assert forward.counter_value("x") == 7.0
        assert forward.histogram("h").count == 3

    def test_merge_empty_histogram_is_noop(self):
        w = MetricsRegistry()
        w.observe("h", 1.0)
        w.reset()
        w.inc("dummy")  # snapshot with no histograms
        parent = MetricsRegistry()
        parent.merge(w.snapshot())
        assert parent.histogram("h") is None

    def test_render(self):
        m = MetricsRegistry()
        assert m.render() == "(no metrics recorded)"
        m.inc("ff.emulations", 3)
        m.gauge("g", 1.5)
        m.observe("h", 2.0)
        text = m.render()
        assert "ff.emulations" in text
        assert "counters:" in text
        assert "gauges:" in text
        assert "histograms:" in text

    def test_global_swap(self):
        original = get_metrics()
        mine = MetricsRegistry()
        try:
            old = set_metrics(mine)
            assert old is original
            assert get_metrics() is mine
        finally:
            set_metrics(original)


class TestEventShape:
    def test_trace_event_slots(self):
        e = TraceEvent(SPAN, "n", 1.0, 2.0, "t", "c", None)
        with pytest.raises(AttributeError):
            e.extra = 1
