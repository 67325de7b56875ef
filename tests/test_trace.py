"""Tests for the message ring (repro.obs.spans.Tracer)."""

import pytest

from repro import Machine, OS, small_test_model
from repro.cpu import ops
from repro.lcu import api
from repro.lcu import messages as lcu_msgs
from repro.obs.spans import SpanTracer, Tracer


def run_locked_cs(machine, addr):
    os_ = OS(machine)

    def prog(thread):
        yield from api.lock(addr, True)
        yield ops.Compute(20)
        yield from api.unlock(addr, True)

    os_.spawn(prog)
    os_.run_all()
    machine.drain()


class TestTracer:
    def test_records_protocol_messages(self):
        m = Machine(small_test_model())
        addr = m.alloc.alloc_line()
        tracer = Tracer.attach(m)
        run_locked_cs(m, addr)
        kinds = {type(r.payload) for r in tracer.records}
        assert lcu_msgs.Request in kinds
        assert lcu_msgs.Grant in kinds
        assert lcu_msgs.ReleaseMsg in kinds

    def test_type_filter(self):
        m = Machine(small_test_model())
        addr = m.alloc.alloc_line()
        tracer = Tracer.attach(m)
        run_locked_cs(m, addr)
        grants = tracer.of_type(lcu_msgs.Grant)
        assert grants and len(grants) < len(tracer)
        assert all(isinstance(r.payload, lcu_msgs.Grant) for r in grants)

    def test_detach_restores_send(self):
        m = Machine(small_test_model())
        addr = m.alloc.alloc_line()
        tracer = Tracer.attach(m)
        tracer.detach()
        assert m.sim.bus.net == []
        run_locked_cs(m, addr)
        assert len(tracer) == 0

    def test_capacity_bound(self):
        m = Machine(small_test_model())
        tracer = Tracer.attach(m, capacity=5)
        addr = m.alloc.alloc_line()
        run_locked_cs(m, addr)
        assert len(tracer) <= 5

    def test_render_and_queries(self):
        m = Machine(small_test_model())
        addr = m.alloc.alloc_line()
        tracer = Tracer.attach(m)
        run_locked_cs(m, addr)
        text = tracer.render()
        assert "Request" in text and "->" in text
        grants = tracer.of_type(lcu_msgs.Grant)
        assert grants
        window = tracer.between(0, m.sim.now)
        assert len(window) == len(tracer)
        assert Tracer().render() == "(no trace records)"


class TestSpanFlushOnViolation:
    """Spans open when an invariant violation unwinds the run carry the
    interrupted activity — they must be flushed into the trace (tagged
    ``flushed=True``), not silently dropped."""

    def test_violation_unwind_flushes_open_spans(self, monkeypatch):
        from repro.check import FuzzCase, run_case
        from repro.lcu.lrt import LockReservationTable
        from repro.lcu.lcu import ProtocolError

        orig = LockReservationTable._on_request

        def die_on_fifth(self, m):
            self._hits = getattr(self, "_hits", 0) + 1
            if self._hits == 5:
                # mid-delivery failure: the Request being processed (and
                # anything else in flight) has an open span right now
                raise ProtocolError("injected LRT fault")
            return orig(self, m)

        monkeypatch.setattr(LockReservationTable, "_on_request", die_on_fifth)
        spans = SpanTracer()
        case = FuzzCase(
            algo="lcu", model="T", seed=6, threads=6, iters=6, write_pct=60,
        )
        outcome = run_case(case, span_tracer=spans)
        assert not outcome.ok
        # nothing was left dangling or thrown away...
        assert spans.open_count == 0
        flushed = [s for s in spans.spans if s.args.get("flushed")]
        # ...and the in-flight activity at the instant of the violation
        # survived into the trace, still exportable.
        assert flushed
        assert all(s.end >= s.start for s in flushed)
        spans.check_closed()
        trace = spans.to_chrome_trace()
        assert any(
            ev.get("args", {}).get("flushed")
            for ev in trace["traceEvents"]
            if ev["ph"] == "X"
        )

    def test_passing_run_flushes_nothing(self):
        from repro.check import FuzzCase, run_case

        spans = SpanTracer()
        case = FuzzCase(
            algo="lcu", model="T", seed=4, threads=3, iters=3, write_pct=50,
        )
        outcome = run_case(case, span_tracer=spans)
        assert outcome.ok, outcome.summary()
        assert spans.open_count == 0
        assert not any(s.args.get("flushed") for s in spans.spans)
