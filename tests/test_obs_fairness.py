"""Tests for the fairness observatory (:mod:`repro.obs.fairness`).

Covers the overtake ledger on hand-built schedules (exact attribution),
the starvation watchdog (fires on the reader-preferring SSB, silent on
the LCU at the same bound), flight-recorder ring bounds, RunReport v4
round-trips with v3 back-compat, the zero-overhead contract
(bit-identical simulated cycles with the observatory attached), gauge
merge policies in the sweep path, and the ``repro fairness`` CLI verb.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.harness.microbench import run_microbench
from repro.locks.base import LockAlgorithm
from repro.obs import MetricsRegistry
from repro.obs.fairness import (
    FairnessError,
    FairnessObservatory,
    OvertakeLedger,
    StarvationAlert,
    summarize_fairness,
    validate_fairness,
)
from repro.obs.registry import MetricError
from repro.obs.report import (
    ReportValidationError,
    build_run_report,
    validate_run_report,
)
from repro.params import model_a, small_test_model
from repro.sim.bus import ProbeBus

pytestmark = pytest.mark.fairness


# --------------------------------------------------------------------- #
# ledger exactness on hand-built schedules


class TestOvertakeLedger:
    def test_exact_attribution(self):
        """Grant order 3, 2, 1 over arrival order 1, 2, 3: every charge,
        pair, and mode bucket is predictable by hand."""
        led = OvertakeLedger()
        for tid in (1, 2, 3):
            led.note_request(tid)
        # writer 3 (arrived 3rd) granted over readers 1 and 2
        inc = led.note_grant(3, 3, True,
                             {1: (1, False, 0), 2: (2, False, 0)})
        assert inc == [(1, 1), (2, 1)]
        led.clear(3)
        # reader 2 granted over reader 1: second overtake for tid 1
        inc = led.note_grant(2, 2, False, {1: (1, False, 0)})
        assert inc == [(1, 2)]
        led.clear(2)
        # tid 1 finally granted, nobody left to overtake
        assert led.note_grant(1, 1, False, {}) == []
        led.clear(1)

        assert led.total == 3
        assert led.max_overtake == 2
        assert led.exempted == 0
        assert led.per_victim_max == {1: 2, 2: 1}
        assert led.pairs == {(1, 3): 1, (2, 3): 1, (1, 2): 1}
        assert led.by_mode == {
            "reader_by_reader": 1, "reader_by_writer": 2,
            "writer_by_reader": 0, "writer_by_writer": 0,
        }

    def test_later_arrivals_never_charged(self):
        """A grant only overtakes waiters that arrived *earlier*."""
        led = OvertakeLedger()
        led.note_request(1)
        waiting = {2: (2, False, 0), 3: (5, True, 0)}
        assert led.note_grant(1, 1, True, waiting) == []
        assert led.total == 0

    def test_excused_waiters_skipped(self):
        """The oracle excuses crashed holders' victims; the ledger must
        not charge an excused waiter."""
        led = OvertakeLedger()
        led.note_request(1)
        led.note_request(2)
        inc = led.note_grant(3, 3, True,
                             {1: (1, False, 0), 2: (2, False, 0)},
                             excused={1})
        assert inc == [(2, 1)]
        assert led.counts.get(1, 0) == 0
        assert led.total == 1

    def test_reader_batch_exemption(self):
        """With the exemption on, a reader joining an active read batch
        past a waiting *writer* is recorded but not charged; waiting
        readers are still charged, and without a read holder the writer
        is charged too."""
        led = OvertakeLedger(reader_batch_exempt=True)
        waiting = {1: (1, True, 0), 2: (2, False, 0)}
        inc = led.note_grant(3, 3, False, waiting, read_held=True)
        assert inc == [(2, 1)]
        assert led.exempted == 1
        assert led.by_mode["writer_by_reader"] == 0
        # same grant with no read holder: the writer is a real victim
        inc = led.note_grant(4, 4, False, waiting, read_held=False)
        assert [v for v, _ in inc] == [1, 2]
        assert led.by_mode["writer_by_reader"] == 1

    def test_top_pairs_ranked_by_count(self):
        led = OvertakeLedger()
        for _ in range(3):
            led.note_grant(9, 100, True, {1: (1, False, 0)})
        led.note_grant(8, 100, True, {2: (2, False, 0)})
        assert led.top_pairs(2) == [(1, 9, 3), (2, 8, 1)]
        d = led.to_dict()
        assert d["total"] == 4 and d["max"] == 3
        assert d["top_pairs"][0] == [1, 9, 3]


# --------------------------------------------------------------------- #
# scripted observatory: deterministic event replay, no simulator


class _Sim:
    def __init__(self):
        self.now = 0
        self.bus = ProbeBus()


class _Machine:
    def __init__(self):
        self.sim = _Sim()


class _Thread:
    def __init__(self, tid):
        self.tid = tid


class _ScriptedLock(LockAlgorithm):
    """Minimal observed lock: publishes a hand-built event schedule on
    a real probe bus through :meth:`LockAlgorithm.notify`."""

    name = "scripted"

    def __init__(self):
        super().__init__(_Machine())

    def emit(self, t, event, tid, write, handle=0x40):
        self.machine.sim.now = t
        self.notify(event, _Thread(tid), handle, write)


def _scripted(obs=None):
    algo = _ScriptedLock()
    obs = obs if obs is not None else FairnessObservatory()
    obs.attach_machine(algo.machine)
    return algo, obs


class TestScriptedObservatory:
    def test_hand_built_schedule_summary_is_exact(self):
        algo, obs = _scripted()
        algo.emit(0, "request", 2, True)
        algo.emit(1, "request", 1, False)
        algo.emit(2, "request", 3, False)
        # reader 3 (arrived last) granted first: charges writer 2
        # (w-by-r) and reader 1 (r-by-r) — the lock was free, so no
        # batch exemption applies
        algo.emit(3, "acquire", 3, False)
        # reader 1 joins the active read batch past writer 2: legal on
        # reader-preference designs, so recorded as exempted
        algo.emit(4, "acquire", 1, False)
        algo.emit(5, "release", 3, False)
        algo.emit(6, "release", 1, False)
        algo.emit(9, "acquire", 2, True)
        algo.emit(10, "release", 2, True)

        s = obs.lock_summary(0x40)
        assert s is not None
        assert s["grants"] == {"read": 2, "write": 1}
        ot = s["overtakes"]
        assert ot["total"] == 2 and ot["max"] == 1 and ot["exempted"] == 1
        assert ot["by_mode"] == {
            "reader_by_reader": 1, "reader_by_writer": 0,
            "writer_by_reader": 1, "writer_by_writer": 0,
        }
        assert sorted(ot["top_pairs"]) == [[1, 3, 1], [2, 3, 1]]
        # waits: tid3 = 3-2 = 1, tid1 = 4-1 = 3, tid2 = 9-0 = 9
        assert s["wait"]["read"]["count"] == 2
        assert s["wait"]["read"]["max"] == 3
        assert s["wait"]["write"]["count"] == 1
        assert s["wait"]["write"]["max"] == 9
        assert s["longest_wait"] == 9
        assert s["writer_share"] == pytest.approx(1 / 3)
        assert s["per_thread"]["2"] == {
            "grants": 1, "wait_total": 9, "wait_max": 9, "overtaken_max": 1,
        }
        assert s["starvation"]["alerts"] == 0

        # the whole section round-trips the validator
        validate_fairness(obs.to_dict())
        assert "scripted@0x40" in obs.to_dict()["locks"]

    def test_watchdog_one_alert_per_request(self):
        algo, obs = _scripted(FairnessObservatory(starvation_bound=5))
        algo.emit(0, "request", 1, True)
        algo.emit(10, "request", 2, False)   # any event runs the check
        assert len(obs.alerts) == 1
        a = obs.alerts[0]
        assert (a.lock, a.tid, a.write) == ("scripted@0x40", 1, True)
        assert a.waited == 10 and a.t == 10 and a.bound == 5
        # tid 2 crosses the bound too, but tid 1 is never re-alerted
        algo.emit(50, "release", 9, False)
        assert [al.tid for al in obs.alerts] == [1, 2]
        # both still starving at t=90: one alert per request, no churn
        algo.emit(90, "release", 9, False)
        assert len(obs.alerts) == 2
        s = obs.lock_summary(0x40)
        assert s["starvation"]["alerts"] == 2
        assert len(s["starvation"]["alerts_detail"]) == 2

    def test_alert_detail_cap(self):
        obs = FairnessObservatory(starvation_bound=5, max_alert_details=1)
        algo, _ = _scripted(obs)
        for tid in (1, 2, 3):
            algo.emit(tid, "request", tid, True)
        algo.emit(100, "request", 9, False)
        s = obs.lock_summary(0x40)
        assert s["starvation"]["alerts"] == 3
        assert len(s["starvation"]["alerts_detail"]) == 1

    def test_slo_violation_accounting(self):
        algo, obs = _scripted(FairnessObservatory(slo=2))
        algo.emit(0, "request", 1, True)
        algo.emit(1, "acquire", 1, True)     # wait 1: within SLO
        algo.emit(2, "release", 1, True)
        algo.emit(2, "request", 2, True)
        algo.emit(12, "acquire", 2, True)    # wait 10: violation
        s = obs.lock_summary(0x40)
        assert s["slo"] == {
            "target": 2, "checked": 2, "violations": 1,
            "excess_cycles": 8, "time_in_violation": 8,
        }

    def test_abandon_closes_the_waiter(self):
        algo, obs = _scripted()
        algo.emit(0, "request", 1, True)
        algo.emit(1, "request", 2, False)
        algo.emit(2, "abandon", 1, True)
        algo.emit(3, "acquire", 2, False)    # must not charge tid 1
        s = obs.lock_summary(0x40)
        assert s["abandoned"] == 1
        assert s["overtakes"]["total"] == 0

    def test_detach_removes_observer(self):
        algo, obs = _scripted()
        algo.emit(0, "request", 1, True)
        obs.detach()
        bus = algo.machine.sim.bus
        assert all(getattr(bus, t) == [] for t in ProbeBus.__slots__)
        algo.emit(5, "acquire", 1, True)
        assert obs.lock_summary(0x40)["grants"]["write"] == 0

    def test_second_attach_replaces_the_first(self):
        algo, obs = _scripted()
        obs.attach_machine(algo.machine)
        bus = algo.machine.sim.bus
        assert (len(bus.lock), len(bus.ssb), len(bus.net)) == (1, 1, 1)
        algo.emit(0, "request", 1, True)
        algo.emit(1, "acquire", 1, True)
        assert obs.lock_summary(0x40)["grants"]["write"] == 1
        obs.detach()
        assert all(getattr(bus, t) == [] for t in ProbeBus.__slots__)

    def test_attach_to_another_machine_leaves_the_first(self):
        first, obs = _scripted()
        second = _ScriptedLock()
        obs.attach_machine(second.machine)
        assert all(getattr(first.machine.sim.bus, t) == []
                   for t in ProbeBus.__slots__)
        first.emit(0, "request", 1, True)
        second.emit(0, "request", 1, True)
        second.emit(1, "acquire", 1, True)
        assert obs.lock_summary(0x40)["grants"]["write"] == 1

    def test_constructor_validation(self):
        with pytest.raises(FairnessError):
            FairnessObservatory(slo=0)
        with pytest.raises(FairnessError):
            FairnessObservatory(slo=-10)
        with pytest.raises(FairnessError):
            FairnessObservatory(starvation_bound=0)

    def test_window_gauges(self):
        algo, obs = _scripted(FairnessObservatory(window=100))
        reg = MetricsRegistry()
        obs.attach_registry(reg)
        for t, tid, write in ((0, 1, False), (1, 2, False), (2, 3, True)):
            algo.emit(t, "request", tid, write)
            algo.emit(t, "acquire", tid, write)
            algo.emit(t, "release", tid, write)
        assert reg.gauge("fairness.window.jain").read() == pytest.approx(1.0)
        assert reg.gauge("fairness.window.writer_share").read() == (
            pytest.approx(1 / 3))
        # events age out of the window
        algo.emit(500, "request", 1, True)
        algo.emit(500, "acquire", 1, True)
        assert reg.gauge("fairness.window.writer_share").read() == 1.0


class _ScanEveryWaiter(FairnessObservatory):
    """The starvation watchdog as a plain scan of every waiter on every
    event: the reference the observatory's scan skip must match."""

    def _check_starvation(self, st, now, skip):
        for tid, (seq, write, t_req) in st.table.waiting.items():
            if tid == skip or seq in st.alerted:
                continue
            if now - t_req > self.starvation_bound:
                st.alerted.add(seq)
                st.alerts_total += 1
                if st.alerts_total <= self.max_alert_details:
                    self.alerts.append(StarvationAlert(
                        lock=st.label, tid=tid, write=bool(write),
                        waited=now - t_req, t=now,
                        bound=self.starvation_bound, events=[],
                    ))


class TestWatchdogMatchesFullScan:
    """Each schedule runs under the observatory and the scan-every-waiter
    reference at once; both must alert at the same cycles, on the same
    waiters, with the same counts."""

    BOUND = 100

    def _run(self, schedule, detach_at=None):
        algo = _ScriptedLock()
        obs = FairnessObservatory(starvation_bound=self.BOUND)
        ref = _ScanEveryWaiter(starvation_bound=self.BOUND)
        obs.attach_machine(algo.machine)
        ref.attach_machine(algo.machine)
        for t, event, tid, write in schedule:
            algo.emit(t, event, tid, write)
        if detach_at is not None:
            algo.machine.sim.now = detach_at
            obs.detach()
            ref.detach()

        def seen(o):
            return ([(a.t, a.tid, a.write, a.waited) for a in o.alerts],
                    o.lock_summary(0x40)["starvation"]["alerts"])

        assert seen(obs) == seen(ref)
        return seen(obs)

    def test_waiter_starving_behind_later_arrivals(self):
        schedule = [(0, "request", 1, True)]
        # readers 2 and 3 keep arriving after writer 1 and pass it
        for t in range(5, 400, 20):
            for tid in (2, 3):
                schedule += [(t, "request", tid, False),
                             (t + 2, "acquire", tid, False),
                             (t + 6, "release", tid, False)]
        alerts, total = self._run(schedule)
        # only writer 1 starves, at the first event past the bound
        assert alerts == [(105, 1, True, 105)] and total == 1

    def test_repeated_request_replaces_its_entry_in_place(self):
        # tid 1's second request keeps its place ahead of tid 2 in the
        # waiting table, with a later request time: request times are
        # not monotone in table order
        schedule = [
            (0, "request", 1, True),
            (5, "request", 2, False),
            (50, "request", 1, True),
            (60, "request", 3, False),
            (104, "acquire", 3, False),
            (105, "release", 3, False),     # tid 2: waited exactly 100
            (106, "request", 4, False),     # tid 2: waited 101
            (149, "release", 9, False),
            (151, "release", 9, False),     # tid 1: waited 101
            (230, "acquire", 4, False),
        ]
        alerts, total = self._run(schedule)
        assert alerts == [(106, 2, False, 101), (151, 1, True, 101)]
        assert total == 2

    def test_final_sweep_in_detach(self):
        schedule = [
            (0, "request", 1, True),
            (10, "request", 2, False),
            (20, "acquire", 2, False),
            (30, "release", 2, False),
            (40, "request", 3, True),
        ]
        alerts, total = self._run(schedule, detach_at=500)
        assert alerts == [(500, 1, True, 500), (500, 3, True, 460)]
        assert total == 2


# --------------------------------------------------------------------- #
# real runs: watchdog discrimination, ring bounds, zero overhead


def _observed_run(lock, obs, seed=1, **kw):
    kwargs = dict(threads=8, write_pct=20, fixed_roles=True,
                  mode="duration", duration=40_000, seed=seed)
    kwargs.update(kw)
    return run_microbench(model_a(), lock, fairness=obs, **kwargs)


class TestWatchdogOnRealLocks:
    BOUND = 4_000

    def test_fires_on_ssb_reader_preference(self):
        obs = FairnessObservatory(starvation_bound=self.BOUND,
                                  ring_capacity=8)
        _observed_run("ssb", obs)
        (s,) = obs.to_dict()["locks"].values()
        assert s["starvation"]["alerts"] > 0
        # every carried alert snapshots the flight recorder, bounded by
        # the configured ring depth
        for detail in s["starvation"]["alerts_detail"]:
            assert 0 < len(detail["events"]) <= 8

    def test_silent_on_lcu_at_same_bound(self):
        obs = FairnessObservatory(starvation_bound=self.BOUND)
        _observed_run("lcu", obs)
        (s,) = obs.to_dict()["locks"].values()
        assert s["starvation"]["alerts"] == 0
        # and the fair lock's worst waiter stayed far under the bound
        assert s["longest_wait"] < self.BOUND


class TestZeroOverhead:
    @pytest.mark.parametrize("lock", ["lcu", "ssb", "mcs", "ticket"])
    def test_observatory_never_moves_simulated_time(self, lock):
        kw = dict(threads=6, write_pct=30, iters_per_thread=30, seed=7)
        ref = run_microbench(small_test_model(), lock, **kw)
        obs = FairnessObservatory()
        instr = run_microbench(small_test_model(), lock, fairness=obs, **kw)
        assert instr.elapsed == ref.elapsed
        assert instr.total_cs == ref.total_cs


_SRC = Path(__file__).resolve().parents[1] / "src"

#: an mrsw cell whose alerts snapshot memory-system messages: tuples
#: holding op guards and closures
_ALERTING_MRSW = f"""
import json, sys
sys.path.insert(0, {str(_SRC)!r})
from repro.harness.microbench import run_microbench
from repro.obs.fairness import FairnessObservatory
from repro.params import model_a
obs = FairnessObservatory(starvation_bound=1500)
run_microbench(model_a(), "mrsw", 16, 25, iters_per_thread=10, seed=1,
               fairness=obs)
print(json.dumps(obs.to_dict(), sort_keys=True))
"""


class TestByteReproducible:
    def test_alert_snapshots_identical_across_processes(self):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _ALERTING_MRSW],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        (s,) = json.loads(outs[0])["locks"].values()
        events = [line for alert in s["starvation"]["alerts_detail"]
                  for line in alert["events"]]
        # the case is real: its snapshots hold memory-system payloads
        assert any("'miss'" in line for line in events)
        # (counts and a flag: pytest's diff of two ~90 kB strings is slow)
        assert outs[0].count(" at 0x") == 0
        identical = outs[0] == outs[1]
        assert identical


# --------------------------------------------------------------------- #
# RunReport v4: round-trip and the version gate


class TestReportIntegration:
    def _report(self):
        obs = FairnessObservatory()
        registry = MetricsRegistry()
        r = run_microbench(small_test_model(), "lcu", registry=registry,
                           fairness=obs, threads=4, write_pct=50,
                           iters_per_thread=25)
        return build_run_report(
            "microbench",
            {"lock": "lcu", "threads": r.threads},
            {"total_cs": r.total_cs},
            metrics=registry.to_dict(),
            fairness=obs.to_dict(),
        )

    def test_v4_round_trip(self):
        report = self._report()
        assert report["version"] == 4
        validate_run_report(report)
        reloaded = json.loads(json.dumps(report))
        validate_run_report(reloaded)
        assert reloaded["fairness"] == report["fairness"]
        text = summarize_fairness(reloaded["fairness"])
        assert "jain" in text and "overtakes" in text

    def test_fairness_section_requires_v4(self):
        report = self._report()
        report["version"] = 3
        with pytest.raises(ReportValidationError,
                           match="version must be 4"):
            validate_run_report(report)

    def test_validator_rejects_malformed_section(self):
        with pytest.raises(FairnessError):
            validate_fairness(["not", "a", "dict"])
        with pytest.raises(FairnessError):
            validate_fairness({"locks": {"x": {"grants": "nope"}}})


# --------------------------------------------------------------------- #
# sweep merge: byte-identical for any worker count, gauge policies


class TestSweepFairness:
    def _specs(self):
        from repro.harness.parallel import BenchCellSpec
        return [
            BenchCellSpec("lcu", "A", 4, iters=25),
            BenchCellSpec("ssb", "A", 4, iters=25),
        ]

    @pytest.mark.slow
    def test_parallel_merge_matches_serial_bytes(self):
        from repro.harness.parallel import run_sweep

        serial = run_sweep(self._specs(), seeds=[1, 2], workers=0,
                           fairness=True)
        parallel = run_sweep(self._specs(), seeds=[1, 2], workers=2,
                             fairness=True)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(parallel, sort_keys=True))
        validate_run_report(serial)
        # the observatory's metrics actually made it into the merge
        counters = serial["metrics"]["counters"]
        assert any(k.startswith("fairness.") for k in counters)

    def test_fairness_flag_never_moves_simulated_time(self):
        from repro.harness.parallel import run_sweep

        plain = run_sweep(self._specs(), seeds=[1], workers=0)
        fair = run_sweep(self._specs(), seeds=[1], workers=0,
                         fairness=True)
        for a, b in zip(plain["results"]["cells"],
                        fair["results"]["cells"]):
            assert a["result"]["elapsed"] == b["result"]["elapsed"]
            assert a["result"]["total_cs"] == b["result"]["total_cs"]


class TestGaugeMergePolicies:
    def _state(self, last, mx, mn, sm, skip):
        reg = MetricsRegistry()
        reg.gauge("g.last", lambda: last)
        reg.gauge("g.max", lambda: mx, merge="max")
        reg.gauge("g.min", lambda: mn, merge="min")
        reg.gauge("g.sum", lambda: sm, merge="sum")
        reg.gauge("g.skip", lambda: skip, merge="skip")
        return reg.to_state()

    def test_policies_apply_across_shards(self):
        merged = MetricsRegistry()
        merged.merge_state(self._state(1.0, 10.0, 5.0, 2.0, 99.0))
        merged.merge_state(self._state(3.0, 7.0, 2.0, 2.5, 99.0))
        assert merged.gauge("g.last").read() == 3.0
        assert merged.gauge("g.max").read() == 10.0
        assert merged.gauge("g.min").read() == 2.0
        assert merged.gauge("g.sum").read() == 4.5
        assert "g.skip" not in self._state(1, 1, 1, 1, 1)["gauges"]
        assert merged.gauge("g.skip").read() == 0.0

    def test_merge_order_independent_for_commutative_policies(self):
        a, b = self._state(1, 4, 3, 1, 0), self._state(2, 9, 1, 2, 0)
        r1 = MetricsRegistry().merge_state(a).merge_state(b)
        r2 = MetricsRegistry().merge_state(b).merge_state(a)
        for name in ("g.max", "g.min", "g.sum"):
            assert r1.gauge(name).read() == r2.gauge(name).read()

    def test_unknown_policy_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError, match="merge policy"):
            reg.gauge("g.bad", lambda: 0.0, merge="average")

    def test_legacy_state_without_gauges_merges(self):
        state = {"counters": {"c": 3}, "histograms": {}, "series": {}}
        reg = MetricsRegistry().merge_state(state)
        assert reg.counter("c").value == 3


# --------------------------------------------------------------------- #
# CLI: the fairness verb, its run report and the diff gate


def _run_cli(*argv):
    from repro.__main__ import main
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


#: the smallest scorecard: one quick cell
ONE_CELL = ("fairness", "--quick", "--locks", "lcu", "--models", "A")


class TestFairnessCli:
    def test_fairness_verb_emits_scorecard_and_report(self, tmp_path):
        path = tmp_path / "fairness.json"
        code, out = _run_cli(
            "fairness", "--quick", "--locks", "lcu,ssb",
            "--models", "A", "--metrics-out", str(path),
        )
        assert code == 0
        assert "jain" in out and "lcu" in out and "ssb" in out
        report = json.loads(path.read_text())
        validate_run_report(report)
        assert report["kind"] == "fairness"
        assert report["config"] == {
            "locks": ["lcu", "ssb"], "models": ["A"], "threads": 8,
            "write_pct": 20, "duration": 40_000, "seed": 1, "slo": None,
            "starvation_bound": 100_000,
        }
        cells = report["results"]["cells"]
        assert set(cells) == {"lcu/A", "ssb/A"}
        for c in cells.values():
            assert c["zero_overhead"] is True
            assert 0.0 < c["jain"] <= 1.0
        # nothing host-derived enters the report
        assert set(report) == {"schema", "version", "kind", "config",
                               "results", "metrics"}
        assert set(cells["lcu/A"]) == {
            "simulated_cycles", "total_cs", "cycles_per_cs", "jain",
            "max_overtake", "overtakes_total", "writer_share",
            "wait_p999", "starvation_alerts", "zero_overhead",
        }

        # the report diffed against itself: no regressions; `repro
        # report` prints the scorecard
        code, out = _run_cli(
            "diff", str(path), str(path), "--fail-on-regression",
        )
        assert code == 0
        code, out = _run_cli("report", str(path))
        assert code == 0
        assert "kind=fairness" in out and "w-share" in out

    def test_rerun_writes_byte_identical_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = _run_cli(*ONE_CELL, "--metrics-out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_report_without_metrics_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = _run_cli(*ONE_CELL)
        assert code == 0
        assert "run report" not in out
        assert list(tmp_path.iterdir()) == []

    def test_slo_cells_carry_slo_pair(self, tmp_path):
        path = tmp_path / "f.json"
        code, _ = _run_cli(*ONE_CELL, "--slo", "200",
                           "--metrics-out", str(path))
        assert code == 0
        cell = json.loads(path.read_text())["results"]["cells"]["lcu/A"]
        assert cell["slo_violations"] > 0
        assert cell["slo_time_in_violation"] > 0

    def test_explicit_threads_and_duration_beat_quick(self, tmp_path):
        path = tmp_path / "f.json"
        code, out = _run_cli(*ONE_CELL, "--threads", "4",
                             "--duration", "20000",
                             "--metrics-out", str(path))
        assert code == 0
        assert "4 threads" in out and "20000 cycles" in out
        config = json.loads(path.read_text())["config"]
        assert (config["threads"], config["duration"]) == (4, 20_000)

    def test_microbench_fairness_flag(self):
        code, out = _run_cli(
            "microbench", "--threads", "4", "--iters", "30",
            "--lock", "lcu", "--fairness",
        )
        assert code == 0
        assert "fairness" in out

    def test_fairness_rejects_unknown_lock(self):
        code, _ = _run_cli("fairness", "--quick", "--locks", "nosuch")
        assert code == 2

    def test_threads_below_one_exit_two(self, capsys):
        code, out = _run_cli(*ONE_CELL, "--threads", "0")
        assert code == 2
        assert "--threads must be >= 1, got 0" in capsys.readouterr().err
        assert "jain" not in out

    def test_duration_below_one_exit_two(self, capsys):
        code, _ = _run_cli(*ONE_CELL, "--duration", "0")
        assert code == 2
        assert "--duration must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("pct", ["-1", "150"])
    def test_write_pct_out_of_range_exit_two(self, pct, capsys):
        code, _ = _run_cli(*ONE_CELL, "--write-pct", pct)
        assert code == 2
        assert (f"--write-pct must be in [0, 100], got {pct}"
                in capsys.readouterr().err)


#: every scorecard field of a fairness report cell, and the direction
#: ``repro diff`` judges it by
SCORECARD_DIRECTIONS = {
    "simulated_cycles": "lower",
    "total_cs": "higher",
    "cycles_per_cs": "lower",
    "jain": "higher",
    "max_overtake": "lower",
    "overtakes_total": "lower",
    "writer_share": "higher",
    "wait_p999": "lower",
    "starvation_alerts": "lower",
    "slo_time_in_violation": "lower",
    "slo_violations": "lower",
}


def _fairness_report(jain):
    cell = {"simulated_cycles": 1000, "total_cs": 50, "jain": jain,
            "max_overtake": 2, "zero_overhead": True}
    return build_run_report(
        "fairness", {"locks": ["lcu"], "models": ["A"], "threads": 4},
        {"cells": {"lcu/A": cell}},
    )


def _write_report(path, report):
    path.write_text(json.dumps(report))
    return str(path)


class TestFairnessDiffRecords:
    """``repro diff`` on two fairness run reports: the same gate as
    every other report, keyed ``results.cells.<lock>/<model>.<field>``."""

    def test_jain_drop_fails_gate(self, tmp_path, capsys):
        old = _write_report(tmp_path / "old.json", _fairness_report(0.9))
        new = _write_report(tmp_path / "new.json", _fairness_report(0.5))
        code, out = _run_cli("diff", old, new, "--fail-on-regression")
        assert code == 1
        assert "results.cells.lcu/A.jain: 0.9 -> 0.5" in out
        assert "1 regression(s)" in capsys.readouterr().err
        # the other way round it is an improvement, and passes
        code, out = _run_cli("diff", new, old, "--fail-on-regression")
        assert code == 0
        assert "improvements (1)" in out

    def test_scorecard_field_directions(self):
        # the cell key must not tip any field's direction: no lock or
        # model name may contain a direction substring
        from repro.harness.fairness_bench import (
            DEFAULT_LOCKS, DEFAULT_MODELS,
        )
        from repro.obs.diff import direction_of

        for lock in DEFAULT_LOCKS:
            for model in DEFAULT_MODELS:
                for field, want in SCORECARD_DIRECTIONS.items():
                    key = f"results.cells.{lock}/{model}.{field}"
                    assert direction_of(key) == want, key

    def test_trajectory_against_run_report_exit_two(self, tmp_path,
                                                     capsys):
        # a record list in the pre-report scorecard format is refused,
        # not half-compared
        traj = _write_report(tmp_path / "f.json", {"records": [
            {"cells": [{"lock": "lcu", "model": "A", "jain": 0.9}]},
        ]})
        rep = _write_report(tmp_path / "rep.json", _fairness_report(0.9))
        code, _ = _run_cli("diff", traj, rep)
        assert code == 2
        assert "invalid run report" in capsys.readouterr().err
