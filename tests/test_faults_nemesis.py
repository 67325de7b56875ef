"""The nemesis matrix: recovery verdicts, replayability, and the
zero-overhead guarantee when no plan is armed."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.__main__ import main
from repro.check.fuzz import FuzzCase, run_case
from repro.faults.nemesis import (
    NemesisResult,
    _cell_seed,
    classes_for,
    run_cell,
    run_matrix,
)
from repro.faults.plan import LCU_ONLY_CLASSES, generate_plan

pytestmark = pytest.mark.faults


class TestCellSeeding:
    def test_cell_seed_stable_and_distinct(self):
        a = _cell_seed(0, "lcu", "A", "drop")
        assert a == _cell_seed(0, "lcu", "A", "drop")
        others = {
            _cell_seed(0, "lcu", "A", "dup"),
            _cell_seed(0, "mcs", "A", "drop"),
            _cell_seed(0, "lcu", "B", "drop"),
            _cell_seed(1, "lcu", "A", "drop"),
        }
        assert a not in others

    def test_classes_for_skips_hw_classes_on_sw_locks(self):
        assert set(LCU_ONLY_CLASSES) <= set(classes_for("lcu", None))
        assert set(LCU_ONLY_CLASSES) <= set(classes_for("lcu_fb", None))
        for cls in LCU_ONLY_CLASSES:
            assert cls not in classes_for("mcs", None)
            assert cls not in classes_for("mcs", ["drop", cls])


class TestSingleCells:
    @pytest.mark.parametrize("fault", ["drop", "evict", "preempt"])
    def test_lcu_cell_survives(self, fault):
        cell = run_cell("lcu", "A", fault, seed=0)
        assert cell.outcome in ("recovered", "degraded"), cell.detail
        assert cell.total_cs == 6 * 30, "every critical section ran"

    def test_stall_frozen_waiter_is_excused(self):
        """Regression: at seed 3 a core stall froze one waiter for
        thousands of cycles; every other thread lapped it while the
        grant timer credited only a single skip, tripping the
        bounded-overtake oracle.  Frozen waiters are now excused from
        overtake accounting instead."""
        cell = run_cell("lcu", "A", "stall", seed=3)
        assert cell.outcome == "recovered", cell.detail

    def test_sw_lock_survives_message_faults(self):
        cell = run_cell("mcs", "A", "drop", seed=0)
        assert cell.outcome == "recovered", cell.detail

    def test_cell_embeds_full_reproducer(self):
        cell = run_cell("lcu", "A", "evict", seed=0)
        # the cell's plan + case dicts are a complete reproducer: running
        # the case standalone gives the same elapsed cycle count
        case = FuzzCase.from_dict(dict(cell.case))
        outcome = run_case(case)
        assert outcome.elapsed == cell.elapsed


class TestMatrix:
    def test_small_matrix_recovers_and_replays(self):
        kwargs = dict(
            algos=("lcu", "mcs"), models=("A",),
            classes=("drop", "evict", "stall"), seed=0,
        )
        res = run_matrix(**kwargs)
        assert isinstance(res, NemesisResult)
        # mcs skips the LCU-only evict class: 3 + 2 cells
        assert len(res.cells) == 5
        assert res.ok, [c.detail for c in res.violated()]
        assert res.counts["violated"] == 0
        # bit-identical replay: same seed, same report
        again = run_matrix(**kwargs)
        assert json.dumps(res.to_dict(), sort_keys=True) == \
            json.dumps(again.to_dict(), sort_keys=True)

    def test_report_is_json_serializable(self):
        res = run_matrix(algos=("ticket",), models=("A",),
                         classes=("preempt",), seed=3)
        doc = json.loads(json.dumps(res.to_dict()))
        assert doc["ok"] is True
        assert doc["cells"][0]["fault"] == "preempt"
        assert doc["cells"][0]["plan"]["events"]


class TestZeroOverhead:
    def test_unarmed_run_is_bit_identical(self):
        """A workload without a fault plan must simulate the exact same
        cycle count as before the faults subsystem existed — arming is
        the only thing that changes behaviour."""
        base = FuzzCase(algo="lcu", model="A", seed=5, threads=4, locks=2,
                        iters=10, tiebreak_seed=9)
        a, b = run_case(base), run_case(base)
        assert a.elapsed == b.elapsed
        assert a.ok and b.ok

    def test_armed_empty_window_changes_nothing_but_completes(self):
        plan = generate_plan(seed=1, classes=["preempt"], horizon=8_000)
        case = FuzzCase(algo="lcu", model="A", seed=5, threads=4, locks=2,
                        iters=10, tiebreak_seed=9, faults=plan.to_dict())
        outcome = run_case(case)
        assert outcome.ok
        assert outcome.fault_outcomes is not None


class TestCliVerb:
    def run_cli(self, *argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    def test_faults_verb_smoke(self, tmp_path):
        report = tmp_path / "nemesis.json"
        code, out = self.run_cli(
            "faults", "--algos", "lcu", "--models", "A",
            "--classes", "evict,preempt", "--out", str(report),
        )
        assert code == 0, out
        assert "2 cells" in out
        assert "0 violated" in out
        doc = json.loads(report.read_text())
        assert doc["ok"] is True
        assert len(doc["cells"]) == 2

    def test_faults_verb_rejects_unknown_class(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = self.run_cli("faults", "--classes", "gamma_ray")
        assert code == 2
        # usage errors go to stderr, as on every other verb
        assert "unknown fault class" in err.getvalue()
        assert "unknown fault class" not in out

    def test_faults_verb_workers_matches_serial(self, tmp_path):
        argv = ["faults", "--algos", "lcu", "--models", "A",
                "--classes", "crash_core,preempt"]
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        code, _ = self.run_cli(*argv, "--out", str(serial))
        assert code == 0
        code, _ = self.run_cli(*argv, "--workers", "2",
                               "--out", str(pooled))
        assert code == 0
        assert serial.read_text() == pooled.read_text(), \
            "worker fan-out must write a byte-identical report"
