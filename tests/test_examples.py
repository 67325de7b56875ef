"""The example scripts must run end to end (small arguments)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--threads", "4", "--iters", "20")
        assert "cycles/CS" in out
        assert "Jain fairness" in out
        # the counter check proves the lock actually protected the data
        assert "expected" in out

    def test_quickstart_other_lock(self):
        out = run_example(
            "quickstart.py", "--lock", "mcs", "--threads", "4",
            "--iters", "10",
        )
        assert "lock=mcs" in out

    @pytest.mark.fairness
    def test_fairness_demo(self):
        out = run_example("fairness_demo.py", "--duration", "30000",
                          "--readers", "6", "--writers", "2")
        assert "lcu" in out and "ssb" in out
        assert "writer share" in out
        assert "overtakes:" in out
        assert "starvation" in out.lower()

    def test_stm_set(self):
        out = run_example(
            "stm_set.py", "--threads", "4", "--size", "64",
            "--txns", "15", "--variant", "lcu",
        )
        assert "cycles/txn" in out
        assert "abort rate" in out

    def test_work_stealing(self):
        out = run_example("work_stealing.py", "--threads", "6",
                          "--seeds", "1")
        assert "lcu + FLT" in out
        assert "pthread" in out

    def test_telemetry_demo(self, tmp_path):
        out = run_example(
            "telemetry_demo.py", "--threads", "4", "--iters", "15",
            "--outdir", str(tmp_path),
        )
        assert "artifacts OK" in out
        assert "RunReport kind=microbench" in out
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "trace.json").exists()

    @pytest.mark.profile
    def test_profiling_demo(self, tmp_path):
        out = run_example(
            "profiling_demo.py", "--threads", "6", "--iters", "15",
            "--outdir", str(tmp_path),
        )
        assert "100.00% of end-to-end acquire latency" in out
        assert "regression view: mcs vs lcu" in out
        assert "profiling demo OK" in out
        assert (tmp_path / "lcu.folded").exists()
        assert (tmp_path / "mcs.folded").exists()

    def test_faults_demo(self):
        out = run_example("faults_demo.py", "--threads", "4",
                          "--iters", "10")
        assert "lossy wire" in out
        assert "eviction + reclaim" in out
        assert "bit-identical" in out
        assert "faults demo OK" in out

    def test_protocol_walkthrough(self):
        out = run_example("protocol_walkthrough.py")
        assert "Figure 4" in out and "Figure 5" in out and "Figure 6" in out
        assert "Request(" in out and "Grant(" in out
        assert "HeadNotify(" in out

    @pytest.mark.slow
    def test_reproduce_paper_single_figure(self):
        out = run_example("reproduce_paper.py", "--only", "fig1", "fig8")
        assert "Figure 1" in out
        assert "Figure 8" in out
