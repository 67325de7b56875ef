"""Unit tests for the host-performance observatory (repro.obs.host):
host-time attribution, engine event-queue telemetry, trajectory records,
registry HostTimers, and the zero-cost-when-off overhead guard.

The golden folded-stack file pins the export format byte-for-byte for a
synthetic deterministic profile.  Regenerate after an intentional format
change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_host.py
"""

import json
import os
import pathlib

import pytest

from repro.check.invariants import InvariantMonitor
from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.harness.microbench import run_microbench
from repro.locks.base import get_algorithm
from repro.obs.host import (
    HostProfileError,
    HostProfiler,
    SUBSYSTEMS,
    append_record,
    classify_module,
    empty_trajectory,
    env_fingerprint,
    fingerprint_mismatches,
    is_trajectory,
    latest_record,
    load_trajectory,
    validate_host_section,
    validate_record,
    validate_trajectory,
    write_trajectory,
)
from repro.obs.registry import HostTimer, MetricsRegistry
from repro.obs.report import build_run_report, validate_run_report
from repro.params import small_test_model
from repro.sim.engine import SimulationError, Simulator

from .conftest import RWTracker, cs_program

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_FOLDED = DATA / "golden_host.folded"


# --------------------------------------------------------------------- #
# classification

class TestClassify:
    def test_known_subsystems(self):
        assert classify_module("repro.sim.engine") == "engine"
        assert classify_module("repro.net.hub") == "net"
        assert classify_module("repro.lcu.unit") == "lcu"
        assert classify_module("repro.obs.registry") == "obs"

    def test_unknown_falls_back_to_other(self):
        assert classify_module("somelib.module") == "other"
        assert classify_module("") == "other"

    def test_every_target_is_a_declared_subsystem(self):
        for mod in ("repro.sim.x", "repro.net.x", "repro.mem.x",
                    "repro.lcu.x", "repro.ssb.x", "repro.stm.x",
                    "repro.locks.x", "repro.cpu.x", "repro.apps.x",
                    "repro.harness.x", "repro.obs.x", "repro.check.x",
                    "repro.faults.x"):
            assert classify_module(mod) in SUBSYSTEMS


# --------------------------------------------------------------------- #
# attribution on a real simulated run

def _profiled_run(threads=4, iters=8):
    host = HostProfiler()
    result = run_microbench(
        small_test_model(), "lcu", threads=threads, write_pct=100,
        iters_per_thread=iters, cs_cycles=10, think_cycles=0, seed=1,
        host_profiler=host,
    )
    return host, result


class TestAttribution:
    def test_subsystems_sum_exactly_to_total(self):
        # charge intervals tile the instrumented loop's wall time, so
        # the per-subsystem split sums to the total *by construction*
        # (not within rounding — exactly)
        host, _ = _profiled_run()
        d = host.to_dict()
        assert d["total_ns"] > 0
        assert sum(d["subsystems"].values()) == d["total_ns"]

    def test_handler_time_within_subsystem_time(self):
        host, _ = _profiled_run()
        d = host.to_dict()
        per_sub = {}
        for h in d["handlers"].values():
            per_sub[h["subsystem"]] = (
                per_sub.get(h["subsystem"], 0) + h["ns"]
            )
        for sub, ns in per_sub.items():
            assert ns <= d["subsystems"][sub]

    def test_simulated_results_identical_with_profiler(self):
        # the instrumented run loop must preserve event semantics
        # bit-for-bit: attribution changes host time only
        host, with_prof = _profiled_run()
        bare = run_microbench(
            small_test_model(), "lcu", threads=4, write_pct=100,
            iters_per_thread=8, cs_cycles=10, think_cycles=0, seed=1,
        )
        assert with_prof.elapsed == bare.elapsed
        assert with_prof.total_cs == bare.total_cs
        assert with_prof.cycles_per_cs == bare.cycles_per_cs

    def test_engine_stats_folded_on_detach(self):
        host, result = _profiled_run()
        eng = host.to_dict()["engine"]
        assert eng["events_processed"] > 0
        assert eng["heap_pushes"] >= eng["heap_pops"]
        assert eng["queue_depth_peak"] >= 1
        assert eng["queue_depth_mean"] > 0

    def test_host_section_validates(self):
        host, _ = _profiled_run()
        validate_host_section(host.to_dict())

    def test_embeds_in_current_run_report(self):
        host, result = _profiled_run()
        report = build_run_report(
            "microbench", {"lock": "lcu"},
            {"cycles_per_cs": result.cycles_per_cs},
            host=host.to_dict(),
        )
        assert report["version"] == 4
        validate_run_report(report)

    def test_summarize_names_top_subsystem(self):
        host, _ = _profiled_run()
        text = host.summarize()
        assert "attributed" in text


class TestSlottedDispatchClassification:
    """The engine rewrite replaced hot-path closures with slotted frame
    objects (`_Transit`), completion guards (`_Guard`) and bound
    methods.  Classification must keep attributing them to their true
    subsystems — and the tiling invariant must keep holding exactly."""

    def test_slotted_frames_classified_not_other(self):
        host, _ = _profiled_run()
        d = host.to_dict()
        handlers = d["handlers"]
        # the network's per-message frame object dispatches as net
        transits = [q for q in handlers if "_Transit" in q]
        assert transits, "no _Transit dispatches were profiled"
        assert all(handlers[q]["subsystem"] == "net" for q in transits)
        # the scheduler's completion guard dispatches as cpu
        guards = [q for q in handlers if "_Guard" in q]
        assert guards, "no _Guard dispatches were profiled"
        assert all(handlers[q]["subsystem"] == "cpu" for q in guards)
        # nothing on the hot path of a pure-repro workload is "other"
        assert d["subsystems"].get("other", 0) == 0

    def test_tiling_exact_with_slotted_dispatch(self):
        host, _ = _profiled_run(threads=6, iters=10)
        d = host.to_dict()
        assert d["subsystems"].get("net", 0) > 0
        assert sum(d["subsystems"].values()) == d["total_ns"]

    def test_bound_method_classified_by_function_module(self):
        host = HostProfiler()
        sim = Simulator()
        sim.at(0, sim.request_stop)  # bound method of a repro.sim class
        host.attach(sim)
        sim.run()
        host.detach()
        handlers = host.to_dict()["handlers"]
        (qual,) = handlers
        assert "request_stop" in qual
        assert handlers[qual]["subsystem"] == "engine"

    def test_foreign_bound_method_falls_back_to_owner_module(self):
        """A method defined outside repro but bound to a repro-owned
        object (monkeypatched handler) classifies by the owner class."""
        from repro.sim.engine import Server

        def patched(self):
            pass

        Server.test_hook = patched  # defined in tests.*, owner repro.sim
        try:
            sim = Simulator()
            srv = Server(sim, "s")
            host = HostProfiler()
            host.attach(sim)
            sim.at(0, srv.test_hook)
            sim.run()
            host.detach()
        finally:
            del Server.test_hook
        handlers = host.to_dict()["handlers"]
        (qual,) = handlers
        assert handlers[qual]["subsystem"] == "engine"

    def test_builtin_bound_method_classified_by_owner(self):
        host = HostProfiler()
        sim = Simulator()
        hits = []
        sim.at(0, hits.copy)  # builtin bound method, owner: list
        host.attach(sim)
        sim.run()
        host.detach()
        handlers = host.to_dict()["handlers"]
        (qual,) = handlers
        assert qual == "list.copy"
        assert handlers[qual]["subsystem"] == "other"
        # tiling still exact even for unclassifiable handlers
        d = host.to_dict()
        assert sum(d["subsystems"].values()) == d["total_ns"]


class TestDispatchSlotAttribution:
    """The profiler times handlers on the engine's dispatch slot and
    probe passes on the probe list, in both event orders.  A fake clock
    that ticks once per read makes every charge exact: a handler spans
    one tick, a probe pass one tick plus what its probes cost."""

    PROBE_NS = 1000

    @pytest.mark.parametrize("tiebreak_seed", [None, 5])
    def test_handler_and_probe_charges(self, monkeypatch, tiebreak_seed):
        ns = [0]

        def tick():
            ns[0] += 1
            return ns[0]

        monkeypatch.setattr(HostProfiler, "clock", staticmethod(tick))
        machine = Machine(small_test_model(), tiebreak_seed=tiebreak_seed)
        os_ = OS(machine)
        algo = get_algorithm("lcu")(machine)
        handle = algo.make_lock()
        host = HostProfiler()
        host.attach(machine.sim)
        # attached after the profiler: its probe is timed all the same
        monitor = InvariantMonitor(machine, algo)
        check = monitor._probe

        def costly_probe():
            ns[0] += self.PROBE_NS
            check()

        monitor._probe = costly_probe
        monitor.attach()
        tracker = RWTracker()
        for _ in range(4):
            os_.spawn(cs_program(algo, handle, tracker, 5))
        os_.run_all(max_cycles=2_000_000)
        machine.drain()
        monitor.detach()
        host.detach()

        assert tracker.total == 20
        events = machine.sim.events_processed
        d = host.to_dict()
        handlers = d["handlers"].values()
        assert sum(h["events"] for h in handlers) == events
        assert sum(h["ns"] for h in handlers) == events
        # probe time is obs, and nothing else is
        assert d["subsystems"]["obs"] == events * (self.PROBE_NS + 1)
        # handler time lands on the handlers' own subsystems
        assert {h["subsystem"] for h in handlers} >= {"net", "lcu", "cpu"}
        for sub in ("net", "lcu", "cpu"):
            assert d["subsystems"][sub] == sum(
                h["ns"] for h in handlers if h["subsystem"] == sub)
        assert d["subsystems"].get("other", 0) == 0
        assert sum(d["subsystems"].values()) == d["total_ns"]
        # detached: the slot is free and the probe list is a plain list
        assert machine.sim.dispatch is None
        assert type(machine.sim._probes) is list

    def test_other_dispatcher_blocks_attach(self):
        sim = Simulator()
        sim.dispatch = lambda now, fn: fn()
        with pytest.raises(SimulationError):
            HostProfiler().attach(sim)


class TestAttachDetach:
    def test_double_attach_same_profiler_is_an_error(self):
        sim = Simulator()
        host = HostProfiler()
        other = HostProfiler()
        host.attach(sim)
        with pytest.raises(SimulationError):
            other.attach(sim)
        host.detach()
        other.attach(sim)  # free again after detach

    def test_detach_idempotent(self):
        sim = Simulator()
        host = HostProfiler()
        host.attach(sim)
        host.detach()
        host.detach()
        assert sim.dispatch is None

    def test_accumulates_across_sims(self):
        # app runner re-attaches one profiler to each seed's fresh sim
        host = HostProfiler()
        for seed in (1, 2):
            run_microbench(
                small_test_model(), "lcu", threads=2, write_pct=100,
                iters_per_thread=3, cs_cycles=10, think_cycles=0,
                seed=seed, host_profiler=host,
            )
        eng = host.to_dict()["engine"]
        one = HostProfiler()
        run_microbench(
            small_test_model(), "lcu", threads=2, write_pct=100,
            iters_per_thread=3, cs_cycles=10, think_cycles=0, seed=1,
            host_profiler=one,
        )
        assert eng["events_processed"] > \
            one.to_dict()["engine"]["events_processed"]


# --------------------------------------------------------------------- #
# zero-cost-when-off overhead guard (satellite b)

class TestOverheadGuard:
    def test_run_loop_unchanged_without_profiler(self):
        # with --host-prof off the dispatch slot is empty: no profiler
        # object, no charge calls, just one None-check per event
        sim = Simulator()
        assert sim.dispatch is None
        fired = []
        sim.at(5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5]

    def test_simulated_cycles_bit_identical(self):
        # acceptance: instrumentation must never perturb simulated time
        kw = dict(threads=4, write_pct=100, iters_per_thread=10,
                  cs_cycles=10, think_cycles=0, seed=3)
        bare = run_microbench(small_test_model(), "lcu", **kw)
        host = HostProfiler()
        prof = run_microbench(small_test_model(), "lcu",
                              host_profiler=host, **kw)
        assert (bare.elapsed, bare.total_cs) == \
            (prof.elapsed, prof.total_cs)
        assert bare.per_thread_cs == prof.per_thread_cs

    def test_queue_counter_cost_is_integer_ops(self):
        # the always-on telemetry is a handful of integer ops per event;
        # guard the *mechanism* (no dict/list churn per event) rather
        # than asserting an unmeasurable sub-2% wall-clock bound in CI
        sim = Simulator()
        for i in range(100):
            sim.at(i, lambda: None)
        sim.run()
        assert sim.heap_pushes == 100
        assert sim.heap_pops == 100
        assert sim.queue_depth_peak == 100
        assert 0 < sim.queue_depth_mean <= 100


# --------------------------------------------------------------------- #
# folded-stack export

def _synthetic_profiler():
    """Deterministic charges — no wall clock involved."""
    host = HostProfiler()

    def handler():  # noqa: E731 - needs a qualname
        pass

    handler.__module__ = "repro.lcu.unit"
    host.charge("engine", 1000)
    host.charge("net", 250)
    host.charge_event(handler, 400)
    host.charge("lcu", 100)  # beyond the handler: subsystem overhead
    return host


class TestFolded:
    def test_rows_cover_all_charged_time(self):
        host = _synthetic_profiler()
        total = 0
        for line in host.folded().strip().split("\n"):
            path, ns = line.rsplit(" ", 1)
            root, sub, _frame = path.split(";")
            assert root == "host"
            assert sub in SUBSYSTEMS
            total += int(ns)
        assert total == host.to_dict()["total_ns"]

    def test_golden_folded(self, tmp_path):
        host = _synthetic_profiler()
        out = tmp_path / "host.folded"
        host.write_folded(str(out))

        if os.environ.get("REPRO_REGEN_GOLDEN"):
            DATA.mkdir(exist_ok=True)
            GOLDEN_FOLDED.write_text(out.read_text())
            pytest.skip("golden host folded stack regenerated")

        assert GOLDEN_FOLDED.exists(), (
            "golden file missing; run with REPRO_REGEN_GOLDEN=1"
        )
        assert out.read_text() == GOLDEN_FOLDED.read_text()


# --------------------------------------------------------------------- #
# host-section / trajectory validation

def _valid_cell():
    return {
        "lock": "lcu", "model": "A", "threads": 4, "write_pct": 100,
        "simulated_cycles": 1000, "cycles_per_host_sec": 2.0e6,
        "engine": {"events_processed": 10},
    }


def _valid_record(label=None):
    rec = {"env": env_fingerprint(), "time_utc": "2026-01-01T00:00:00Z",
           "cells": [_valid_cell()]}
    if label:
        rec["label"] = label
    return rec


class TestValidation:
    def test_valid_host_section(self):
        validate_host_section(_synthetic_profiler().to_dict())

    @pytest.mark.parametrize("mutation", [
        {"total_ns": "many"},
        {"subsystems": []},
        {"subsystems": {"engine": "x"}},
        {"handlers": 3},
    ])
    def test_bad_host_section(self, mutation):
        section = _synthetic_profiler().to_dict()
        section.update(mutation)
        with pytest.raises(HostProfileError):
            validate_host_section(section)

    def test_valid_record(self):
        validate_record(_valid_record())

    @pytest.mark.parametrize("strip", ["env", "cells"])
    def test_record_missing_key(self, strip):
        rec = _valid_record()
        del rec[strip]
        with pytest.raises(HostProfileError):
            validate_record(rec)

    @pytest.mark.parametrize("mutation", [
        {"lock": 3},
        {"threads": "four"},
        {"cycles_per_host_sec": None},
        {"engine": []},
    ])
    def test_bad_cell(self, mutation):
        rec = _valid_record()
        rec["cells"][0].update(mutation)
        with pytest.raises(HostProfileError):
            validate_record(rec)

    def test_trajectory_shape(self):
        t = empty_trajectory()
        assert is_trajectory(t)
        validate_trajectory(t)
        assert not is_trajectory({"schema": "repro.run-report"})
        with pytest.raises(HostProfileError):
            validate_trajectory({"schema": "repro.bench-trajectory",
                                 "version": 99, "records": []})


class TestTrajectoryFile:
    def test_missing_file_loads_empty(self, tmp_path):
        t = load_trajectory(str(tmp_path / "nope.json"))
        assert t["records"] == []

    def test_append_grows(self, tmp_path):
        path = str(tmp_path / "t.json")
        append_record(path, _valid_record())
        t = append_record(path, _valid_record())
        assert len(t["records"]) == 2
        validate_trajectory(load_trajectory(path))

    def test_append_same_label_replaces(self, tmp_path):
        # idempotence: re-running a labelled bench updates the record
        # in place instead of growing the trajectory forever
        path = str(tmp_path / "t.json")
        a = _valid_record("ci")
        append_record(path, a)
        b = _valid_record("ci")
        b["cells"][0]["cycles_per_host_sec"] = 9.0e6
        t = append_record(path, b)
        assert len(t["records"]) == 1
        assert t["records"][0]["cells"][0]["cycles_per_host_sec"] == 9.0e6

    def test_append_validates(self, tmp_path):
        with pytest.raises(HostProfileError):
            append_record(str(tmp_path / "t.json"), {"cells": []})

    def test_write_and_latest(self, tmp_path):
        path = str(tmp_path / "t.json")
        t = empty_trajectory()
        t["records"] = [_valid_record("a"), _valid_record("b")]
        write_trajectory(path, t)
        assert latest_record(load_trajectory(path))["label"] == "b"
        assert latest_record(t, 0)["label"] == "a"
        assert latest_record(t, -2)["label"] == "a"
        with pytest.raises(HostProfileError):
            latest_record(empty_trajectory())


class TestFingerprint:
    def test_fingerprint_keys(self):
        fp = env_fingerprint()
        for key in ("python", "implementation", "platform", "machine",
                    "cpu_count"):
            assert key in fp

    def test_mismatch_detection(self):
        a = env_fingerprint()
        b = dict(a, python="9.9.9")
        assert fingerprint_mismatches(a, a) == []
        mism = fingerprint_mismatches(a, b)
        assert mism == [("python", a["python"], "9.9.9")]


# --------------------------------------------------------------------- #
# registry HostTimer (satellite f)

class TestHostTimer:
    def test_accumulates_into_counter(self):
        reg = MetricsRegistry()
        timer = reg.timer("x.host_ns")
        timer.start()
        elapsed = timer.stop()
        assert elapsed >= 0
        assert reg.counter("x.host_ns").value == elapsed

    def test_no_per_sample_dict_churn(self):
        # the timer holds one counter reference; repeated start/stop
        # must not allocate registry entries per sample
        reg = MetricsRegistry()
        timer = reg.timer("x.host_ns")
        for _ in range(10):
            with timer:
                pass
        assert list(reg.to_dict()["counters"]) == ["x.host_ns"]
        assert reg.counter("x.host_ns").value >= 0

    def test_stop_when_idle_is_zero(self):
        timer = MetricsRegistry().timer("x.host_ns")
        assert timer.stop() == 0

    def test_fake_clock(self, monkeypatch):
        reg = MetricsRegistry()
        timer = reg.timer("x.host_ns")
        ticks = iter([100, 350])
        monkeypatch.setattr(
            HostTimer, "clock", staticmethod(lambda: next(ticks))
        )
        with timer:
            pass
        assert reg.counter("x.host_ns").value == 250
