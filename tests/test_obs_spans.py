"""Unit tests for span tracing and the message ring (repro.obs.spans).
Attaching every sink at once, in any order, is tested in
tests/test_obs_bus.py."""

import pytest

from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.locks.base import get_algorithm
from repro.obs import SpanError, SpanTracer, Tracer, validate_chrome_trace
from repro.params import small_test_model
from repro.sim.engine import Simulator


class TestSpanProtocol:
    def test_begin_end(self):
        sim = Simulator()
        t = SpanTracer(sim)
        sid = t.begin("work", cat="test", track="t0", key=1)
        sim.at(50, lambda: None)
        sim.run()
        span = t.end(sid, extra=2)
        assert span.start == 0 and span.end == 50 and span.duration == 50
        assert span.args == {"key": 1, "extra": 2}
        assert t.spans == [span]

    def test_end_unknown_id(self):
        t = SpanTracer(Simulator())
        with pytest.raises(SpanError):
            t.end(99)

    def test_double_end(self):
        t = SpanTracer(Simulator())
        sid = t.begin("x")
        t.end(sid)
        with pytest.raises(SpanError):
            t.end(sid)

    def test_check_closed_detects_leaks(self):
        t = SpanTracer(Simulator())
        t.begin("leaky")
        assert t.open_count == 1
        with pytest.raises(SpanError, match="leaky"):
            t.check_closed()
        assert t.abandon_open() == 1
        t.check_closed()  # now clean

    def test_flush_open_keeps_spans(self):
        t = SpanTracer(Simulator())
        t.begin("interrupted", ts=3)
        t.begin("late", ts=10)
        assert t.flush_open(ts=7, reason="fault") == 2
        assert t.open_count == 0
        t.check_closed()
        by_name = {s.name: s for s in t.spans}
        assert by_name["interrupted"].duration == 4
        # a span "opened after" the flush instant is clamped, not negative
        assert by_name["late"].duration == 0
        for s in t.spans:
            assert s.args["flushed"] is True
            assert s.args["reason"] == "fault"
        assert t.flush_open(ts=8) == 0

    def test_duration_of_open_span_raises(self):
        t = SpanTracer(Simulator())
        sid = t.begin("x")
        with pytest.raises(SpanError):
            _ = t._open[sid].duration

    def test_no_sim_requires_explicit_ts(self):
        t = SpanTracer()
        with pytest.raises(SpanError):
            t.begin("x")
        sid = t.begin("x", ts=5)
        span = t.end(sid, ts=9)
        assert span.duration == 4

    def test_capacity_drops(self):
        t = SpanTracer(Simulator(), capacity=1)
        t.end(t.begin("a"))
        t.end(t.begin("b"))
        assert len(t.spans) == 1 and t.dropped == 1


class TestChromeExport:
    def test_export_structure(self):
        t = SpanTracer(Simulator())
        t.end(t.begin("op", cat="lock", track="thread 0"))
        t.instant("mark", track="thread 1")
        obj = t.to_chrome_trace()
        validate_chrome_trace(obj)
        phases = [e["ph"] for e in obj["traceEvents"]]
        # process_name + two thread_name metadata + two X events
        assert phases.count("M") == 3 and phases.count("X") == 2
        names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"thread 0", "thread 1"}

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "pid": 0, "tid": 1}]}
            )


def _run_one_cs(machine):
    os_ = OS(machine)
    algo = get_algorithm("lcu")(machine)
    handle = algo.make_lock()

    def worker(thread):
        yield from algo.lock(thread, handle, True)
        yield from algo.unlock(thread, handle, True)

    os_.spawn(worker)
    os_.run_all()


class TestMessageSpans:
    def test_attach_records_message_spans(self):
        machine = Machine(small_test_model())
        t = SpanTracer()
        t.attach(machine)
        _run_one_cs(machine)
        machine.drain()
        t.abandon_open()
        t.detach()
        net_spans = [s for s in t.spans if s.cat == "net"]
        assert net_spans, "no message spans recorded"
        assert all(s.duration >= 0 for s in net_spans)
        validate_chrome_trace(t.to_chrome_trace())


class TestTracerDetachFix:
    def test_detach_is_idempotent(self):
        machine = Machine(small_test_model())
        tr = Tracer.attach(machine)
        spans = SpanTracer().attach(machine)
        assert machine.sim.bus.net == [tr._on_send, spans._on_send]
        tr.detach()
        tr.detach()  # second call is a no-op
        spans.detach()
        spans.detach()
        assert machine.sim.bus.net == []

    def test_nested_tracers_both_record(self):
        machine = Machine(small_test_model())
        outer = Tracer.attach(machine)
        inner = Tracer.attach(machine)
        _run_one_cs(machine)
        assert len(outer) > 0 and len(inner) > 0
        assert list(outer.records) == list(inner.records)
        outer.detach()
        inner.detach()
