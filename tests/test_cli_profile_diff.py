"""CLI tests for ``python -m repro profile`` and ``python -m repro diff``.

The golden folded-stack file pins the profiler's exported weights
byte-for-byte for a small deterministic run.  Regenerate after an
intentional change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_cli_profile_diff.py
"""

import io
import json
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.__main__ import main
from repro.obs import validate_chrome_trace
from repro.obs.report import (
    ReportValidationError,
    load_run_report,
    validate_run_report,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN_FOLDED = DATA / "golden_profile.folded"

SMALL = ("--threads", "4", "--iters", "10", "--seed", "1")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def make_report(tmp_path, name, **over):
    args = dict(zip(SMALL[::2], SMALL[1::2])) | {
        k.replace("_", "-"): str(v) for k, v in over.items()
    }
    path = tmp_path / name
    argv = ["profile", "--lock", "lcu"]
    for k, v in args.items():
        argv += [f"--{k.lstrip('-')}", v]
    code, _, err = run_cli(*argv, "--metrics-out", str(path))
    assert code == 0, err
    return path


class TestProfileVerb:
    def test_prints_decomposition(self):
        code, out, _ = run_cli("profile", "--lock", "lcu", *SMALL)
        assert code == 0
        for phase in ("enqueue", "queue_wait", "transfer", "handoff",
                      "critical_section"):
            assert phase in out
        assert "100.00% of end-to-end acquire latency" in out
        assert "critical path" in out

    def test_software_lock_profilable(self):
        code, out, _ = run_cli("profile", "--lock", "mcs", *SMALL)
        assert code == 0
        assert "mcs@" in out

    def test_top_controls_edge_count(self):
        code, out, _ = run_cli("profile", "--lock", "lcu", *SMALL,
                               "--top", "2")
        assert code == 0
        assert "    2. " in out and "    3. " not in out

    def test_top_must_be_positive(self):
        code, _, err = run_cli("profile", "--top", "0", *SMALL)
        assert code == 2
        assert "--top" in err

    def test_artifacts(self, tmp_path):
        folded = tmp_path / "p.folded"
        trace = tmp_path / "p.trace.json"
        rep = tmp_path / "p.json"
        code, _, _ = run_cli(
            "profile", "--lock", "lcu", *SMALL,
            "--folded-out", str(folded), "--trace-out", str(trace),
            "--metrics-out", str(rep),
        )
        assert code == 0
        for line in folded.read_text().strip().split("\n"):
            stack, weight = line.rsplit(" ", 1)
            assert len(stack.split(";")) == 3
            int(weight)
        validate_chrome_trace(json.loads(trace.read_text()))
        report = load_run_report(str(rep))
        assert report["version"] == 4
        assert "profile" in report
        assert report["config"]["lock"] == "lcu"

    def test_golden_folded(self, tmp_path):
        folded = tmp_path / "p.folded"
        code, _, _ = run_cli("profile", "--lock", "lcu", *SMALL,
                             "--folded-out", str(folded))
        assert code == 0

        if os.environ.get("REPRO_REGEN_GOLDEN"):
            DATA.mkdir(exist_ok=True)
            GOLDEN_FOLDED.write_text(folded.read_text())
            pytest.skip("golden folded stack regenerated")

        assert GOLDEN_FOLDED.exists(), (
            "golden file missing; run with REPRO_REGEN_GOLDEN=1"
        )
        assert folded.read_text() == GOLDEN_FOLDED.read_text()

    def test_microbench_profile_flag(self):
        code, out, _ = run_cli("microbench", "--lock", "lcu",
                               "--threads", "4", "--iters", "10",
                               "--profile")
        assert code == 0
        assert "Contention profile" in out
        assert "cyc/CS" in out

    def test_figure_profile_flag_gated(self):
        code, _, err = run_cli("figure", "fig11a", "--profile")
        assert code == 2
        assert "--profile" in err


class TestDiffVerb:
    def test_self_diff_exit_zero(self, tmp_path):
        rep = make_report(tmp_path, "a.json")
        code, out, _ = run_cli("diff", str(rep), str(rep),
                               "--fail-on-regression")
        assert code == 0
        assert "unchanged" in out
        assert "REGRESSIONS" not in out

    def test_seeded_regression_exit_one(self, tmp_path):
        old = make_report(tmp_path, "old.json", cs_cycles=40)
        new = make_report(tmp_path, "new.json", cs_cycles=80)
        code, out, err = run_cli("diff", str(old), str(new),
                                 "--fail-on-regression")
        assert code == 1
        assert "REGRESSIONS" in out
        assert "cs_cycles: 40 -> 80" in out   # config mismatch surfaced
        assert "FAIL" in err

    def test_regression_without_flag_exit_zero(self, tmp_path):
        old = make_report(tmp_path, "old.json", cs_cycles=40)
        new = make_report(tmp_path, "new.json", cs_cycles=80)
        code, out, _ = run_cli("diff", str(old), str(new))
        assert code == 0
        assert "REGRESSIONS" in out

    def test_json_out(self, tmp_path):
        rep = make_report(tmp_path, "a.json")
        out_path = tmp_path / "diff.json"
        code, _, _ = run_cli("diff", str(rep), str(rep),
                             "--json-out", str(out_path))
        assert code == 0
        d = json.loads(out_path.read_text())
        assert d["schema"] == "repro.run-report-diff"
        assert d["counts"]["regression"] == 0

    def test_missing_file_exit_two(self, tmp_path):
        rep = make_report(tmp_path, "a.json")
        code, _, err = run_cli("diff", str(tmp_path / "nope.json"),
                               str(rep))
        assert code == 2
        assert "cannot read" in err

    def test_invalid_report_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        rep = make_report(tmp_path, "a.json")
        code, _, err = run_cli("diff", str(bad), str(rep))
        assert code == 2
        assert "invalid" in err

    def test_non_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        rep = make_report(tmp_path, "a.json")
        code, _, err = run_cli("diff", str(rep), str(bad))
        assert code == 2

    def test_negative_threshold_exit_two(self, tmp_path):
        rep = make_report(tmp_path, "a.json")
        code, _, err = run_cli("diff", str(rep), str(rep),
                               "--threshold", "-0.5")
        assert code == 2
        assert "--threshold" in err

    def test_trajectory_baseline_diffable(self, tmp_path):
        # BENCH_telemetry.json, the CI perf-regression baseline, is a
        # plain run report; the diff compares its engine counters too
        bench = pathlib.Path(__file__).resolve().parent.parent / \
            "BENCH_telemetry.json"
        out_json = tmp_path / "d.json"
        code, out, _ = run_cli("diff", str(bench), str(bench),
                               "--fail-on-regression",
                               "--json-out", str(out_json))
        assert code == 0
        assert "unchanged" in out
        keys = {e["key"] for e in json.loads(out_json.read_text())["entries"]}
        assert "metrics.counters.engine.events_processed" in keys
        assert "metrics.counters.engine.heap_pushes" in keys

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_report_rejected(self, tmp_path, version):
        # only version 4 is a run report: the validator, and with it
        # both verbs, refuse an older version
        rep = make_report(tmp_path, "a.json")
        old = json.loads(rep.read_text())
        old["version"] = version
        with pytest.raises(ReportValidationError, match="version must be 4"):
            validate_run_report(old)
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old))
        code, _, err = run_cli("report", str(old_path))
        assert code == 1
        assert "version must be 4" in err
        for pair in ((old_path, rep), (rep, old_path)):
            code, _, err = run_cli("diff", *map(str, pair))
            assert code == 2
            assert "version must be 4" in err
