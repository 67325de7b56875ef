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
from contextlib import redirect_stdout

import pytest

from repro.harness.microbench import run_microbench
from repro.obs import MetricsRegistry, build_run_report
from repro.obs.fairness import (
    FairnessError,
    FairnessObservatory,
    OvertakeLedger,
    summarize_fairness,
    validate_fairness,
)
from repro.obs.registry import MetricError
from repro.obs.report import ReportValidationError, validate_run_report
from repro.params import model_a, small_test_model

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
        inc = led.note_grant(3, 3, True, [(1, 1, False), (2, 2, False)])
        assert inc == [(1, 1), (2, 1)]
        led.clear(3)
        # reader 2 granted over reader 1: second overtake for tid 1
        inc = led.note_grant(2, 2, False, [(1, 1, False)])
        assert inc == [(1, 2)]
        led.clear(2)
        # tid 1 finally granted, nobody left to overtake
        assert led.note_grant(1, 1, False, []) == []
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
        assert led.note_grant(1, 1, True, [(2, 2, False), (3, 5, True)]) == []
        assert led.total == 0

    def test_excused_waiters_skipped(self):
        """The oracle excuses crashed holders' victims; the ledger must
        not charge an excused waiter."""
        led = OvertakeLedger()
        led.note_request(1)
        led.note_request(2)
        inc = led.note_grant(3, 3, True, [(1, 1, False), (2, 2, False)],
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
        waiting = [(1, 1, True), (2, 2, False)]
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
            led.note_grant(9, 100, True, [(1, 1, False)])
        led.note_grant(8, 100, True, [(2, 2, False)])
        assert led.top_pairs(2) == [(1, 9, 3), (2, 8, 1)]
        d = led.to_dict()
        assert d["total"] == 4 and d["max"] == 3
        assert d["top_pairs"][0] == [1, 9, 3]


# --------------------------------------------------------------------- #
# scripted observatory: deterministic event replay, no simulator


class _Sim:
    def __init__(self):
        self.now = 0


class _Machine:
    def __init__(self):
        self.sim = _Sim()


class _Thread:
    def __init__(self, tid):
        self.tid = tid


class _ScriptedLock:
    """Minimal observed lock: replays a hand-built event schedule."""

    name = "scripted"

    def __init__(self):
        self.machine = _Machine()
        self._observers = []

    def lock_id(self, handle):
        return handle

    def add_observer(self, fn):
        self._observers.append(fn)

    def remove_observer(self, fn):
        self._observers.remove(fn)

    def emit(self, t, event, tid, write, handle=0x40):
        self.machine.sim.now = t
        for fn in list(self._observers):
            fn(event, _Thread(tid), handle, write)


def _scripted(obs=None):
    algo = _ScriptedLock()
    obs = obs if obs is not None else FairnessObservatory()
    obs.attach_algorithm(algo)
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
        assert algo._observers == []
        algo.emit(5, "acquire", 1, True)
        assert obs.lock_summary(0x40)["grants"]["write"] == 0

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


# --------------------------------------------------------------------- #
# RunReport v4 round-trip and v3 back-compat


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

    def test_v3_without_fairness_still_validates(self):
        report = self._report()
        del report["fairness"]
        report["version"] = 3
        validate_run_report(report)

    def test_fairness_section_requires_v4(self):
        report = self._report()
        report["version"] = 3
        with pytest.raises(ReportValidationError,
                           match="requires version 4"):
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
# CLI: the fairness verb and the trajectory diff gate


def _run_cli(*argv):
    from repro.__main__ import main
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestFairnessCli:
    def test_fairness_verb_emits_scorecard_and_trajectory(self, tmp_path):
        out_file = tmp_path / "BENCH_fairness.json"
        for label in ("t0", "t1"):
            code, out = _run_cli(
                "fairness", "--quick", "--locks", "lcu,ssb",
                "--models", "A", "--out", str(out_file), "--label", label,
            )
            assert code == 0
        assert "jain" in out and "lcu" in out and "ssb" in out
        doc = json.loads(out_file.read_text())
        cells = doc["records"][-1]["cells"]
        assert {(c["lock"], c["model"]) for c in cells} == {
            ("lcu", "A"), ("ssb", "A"),
        }
        for c in cells:
            assert c["zero_overhead"] is True
            assert 0.0 < c["jain"] <= 1.0

        # same trajectory diffed against itself: no regressions
        code, out = _run_cli(
            "diff", str(out_file), str(out_file), "--fail-on-regression",
        )
        assert code == 0

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

    def test_label_append_idempotent(self, tmp_path):
        path = tmp_path / "t.json"
        for label in ("ci", "ci", "other"):
            code, _ = _run_cli(
                "fairness", "--quick", "--locks", "lcu", "--models", "A",
                "--out", str(path), "--label", label,
            )
            assert code == 0
        records = json.loads(path.read_text())["records"]
        assert [r.get("label") for r in records] == ["ci", "other"]

    def test_no_append_with_json_out(self, tmp_path):
        path = tmp_path / "t.json"
        rec_path = tmp_path / "rec.json"
        code, _ = _run_cli(
            "fairness", "--quick", "--locks", "lcu", "--models", "A",
            "--out", str(path), "--no-append", "--json-out", str(rec_path),
        )
        assert code == 0
        assert not path.exists()
        rec = json.loads(rec_path.read_text())
        assert rec["cells"][0]["lock"] == "lcu"


def _fairness_record(label, jain):
    from repro.obs.host import env_fingerprint

    cell = {"lock": "lcu", "model": "A", "threads": 4, "write_pct": 20,
            "simulated_cycles": 1000, "cycles_per_host_sec": 1.0,
            "engine": {}, "jain": jain}
    return {"env": env_fingerprint(), "label": label, "cells": [cell]}


def _write_fairness_trajectory(path, *records):
    from repro.obs.host import write_trajectory

    write_trajectory(str(path), {
        "schema": "repro.bench-trajectory", "version": 1,
        "records": list(records),
    })


class TestFairnessDiffRecords:
    """``repro diff`` on fairness trajectories: which records it
    compares, and what it refuses."""

    def test_record_zero_fairness_same_file_exit_two(self, tmp_path,
                                                      capsys):
        # --record picks NEW; from one file OLD is the record before it,
        # and the first record has none
        path = tmp_path / "f.json"
        _write_fairness_trajectory(path, _fairness_record("a", 0.9),
                                   _fairness_record("b", 0.5))
        code, _ = _run_cli("diff", str(path), str(path), "--record", "0")
        assert code == 2
        assert "first record" in capsys.readouterr().err
        code, out = _run_cli("diff", str(path), str(path),
                             "--fail-on-regression")
        assert code == 1
        assert "fairness.jain" in out
        assert "fairness regression" in capsys.readouterr().err

    def test_record_index_selects(self, tmp_path):
        path = tmp_path / "f.json"
        _write_fairness_trajectory(path, _fairness_record("a", 0.9),
                                   _fairness_record("b", 0.9),
                                   _fairness_record("c", 0.9))
        code, out = _run_cli("diff", str(path), str(path),
                             "--record", "2")
        assert code == 0
        assert "label: 'b' -> 'c'" in out
        code, out = _run_cli("diff", str(path), str(path),
                             "--record", "1")
        assert code == 0
        assert "label: 'a' -> 'b'" in out
        # from two files, OLD takes the same index as NEW; differing
        # environment fingerprints are listed as config mismatches
        other = tmp_path / "g.json"
        x = _fairness_record("x", 0.9)
        x["env"]["python"] = "9.9.9"
        _write_fairness_trajectory(other, x, _fairness_record("y", 0.9))
        code, out = _run_cli("diff", str(other), str(path),
                             "--record", "0")
        assert code == 0
        assert "label: 'x' -> 'a'" in out
        assert "env.python: '9.9.9'" in out

    def test_trajectory_against_run_report_exit_two(self, tmp_path,
                                                     capsys):
        traj = tmp_path / "f.json"
        _write_fairness_trajectory(traj, _fairness_record("a", 0.9))
        rep = tmp_path / "rep.json"
        code, _ = _run_cli(
            "microbench", "--lock", "lcu", "--threads", "2",
            "--iters", "3", "--metrics-out", str(rep),
        )
        assert code == 0
        code, _ = _run_cli("diff", str(traj), str(rep))
        assert code == 2
        assert "another trajectory" in capsys.readouterr().err
