"""CLI tests for ``python -m repro bench`` and ``repro diff --host``:
the round trip run -> append -> diff, trajectory idempotence, record
selection, the environment-fingerprint warning, and regression gating
on host metrics.
"""

import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.__main__ import main
from repro.obs.host import load_trajectory, validate_trajectory

REPO = pathlib.Path(__file__).resolve().parent.parent

#: one tiny cell: small enough for CI, big enough to process events
TINY = ("--locks", "lcu", "--models", "A", "--threads", "2",
        "--iters", "3", "--repeats", "1")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_bench(tmp_path, *extra, name="t.json"):
    path = tmp_path / name
    code, out, err = run_cli("bench", *TINY, "--out", str(path), *extra)
    assert code == 0, err
    return path


class TestBenchVerb:
    def test_appends_valid_trajectory_record(self, tmp_path):
        path = run_bench(tmp_path)
        t = load_trajectory(str(path))
        validate_trajectory(t)
        assert len(t["records"]) == 1
        rec = t["records"][0]
        assert "env" in rec and "time_utc" in rec
        cell = rec["cells"][0]
        assert cell["lock"] == "lcu" and cell["threads"] == 2
        assert cell["cycles_per_host_sec"] > 0
        assert cell["engine"]["events_processed"] > 0
        assert cell["engine"]["queue_depth_peak"] >= 1

    def test_quick_cell(self, tmp_path):
        path = tmp_path / "t.json"
        code, out, err = run_cli(
            "bench", "--quick", "--iters", "3", "--repeats", "1",
            "--out", str(path),
        )
        assert code == 0, err
        cell = load_trajectory(str(path))["records"][0]["cells"][0]
        assert (cell["lock"], cell["model"], cell["threads"]) == \
            ("lcu", "A", 16)

    def test_quick_record_has_no_host_section(self, tmp_path):
        # host time per layer comes from perf/run.py --trace; a bench
        # cell carries timings and engine counters only
        path = tmp_path / "t.json"
        for label in ("a", "b"):
            code, _, err = run_cli(
                "bench", "--quick", "--iters", "3", "--repeats", "1",
                "--out", str(path), "--label", label,
            )
            assert code == 0, err
        for rec in load_trajectory(str(path))["records"]:
            for cell in rec["cells"]:
                assert "host" not in cell
                assert cell["engine"]["events_processed"] > 0
        diff = tmp_path / "diff.json"
        code, out, _ = run_cli("diff", "--host", str(path), str(path),
                               "--top", "1000", "--json-out", str(diff))
        assert code == 0
        assert "host_ns" not in out
        keys = [e["key"] for e in json.loads(diff.read_text())["entries"]]
        assert "lcu.A.t16.w100.cycles_per_host_sec" in keys
        assert not [k for k in keys if "host_ns" in k]

    def test_repeat_timings_recorded(self, tmp_path):
        path = run_bench(tmp_path, "--repeats", "2")
        # run_bench injects --repeats 1 first; last flag wins
        cell = load_trajectory(str(path))["records"][0]["cells"][0]
        assert len(cell["host_seconds"]) == 2
        assert cell["repeats"] == 2
        assert cell["host_seconds_best"] == min(cell["host_seconds"])

    def test_label_append_idempotent(self, tmp_path):
        path = run_bench(tmp_path, "--label", "ci")
        run_bench(tmp_path, "--label", "ci")
        run_bench(tmp_path, "--label", "other")
        t = load_trajectory(str(path))
        assert [r.get("label") for r in t["records"]] == ["ci", "other"]

    def test_no_append_with_json_out(self, tmp_path):
        out_json = tmp_path / "rec.json"
        path = tmp_path / "t.json"
        code, _, err = run_cli(
            "bench", *TINY, "--out", str(path), "--no-append",
            "--json-out", str(out_json),
        )
        assert code == 0, err
        assert not path.exists()
        rec = json.loads(out_json.read_text())
        assert rec["cells"][0]["lock"] == "lcu"

    def test_embed_report_diffable_with_plain_diff(self, tmp_path):
        path = run_bench(tmp_path, "--embed-report")
        code, out, _ = run_cli("diff", str(path), str(path),
                               "--fail-on-regression")
        assert code == 0
        assert "unchanged" in out

    def test_plain_diff_without_embedded_report_exit_two(self, tmp_path):
        path = run_bench(tmp_path)
        code, _, err = run_cli("diff", str(path), str(path))
        assert code == 2
        assert "--host" in err

    def test_unknown_lock_exit_two(self, tmp_path):
        code, _, err = run_cli("bench", "--locks", "nope",
                               "--out", str(tmp_path / "t.json"))
        assert code == 2
        assert "nope" in err

    def test_zero_repeats_exit_two(self, tmp_path):
        code, _, err = run_cli("bench", *TINY, "--repeats", "0",
                               "--out", str(tmp_path / "t.json"))
        assert code == 2
        assert "--repeats" in err

    def test_report_verb_summarizes_trajectory(self, tmp_path):
        path = run_bench(tmp_path, "--label", "seed")
        code, out, _ = run_cli("report", str(path))
        assert code == 0
        assert "trajectory" in out
        assert "seed" in out
        assert "Mcyc/s" in out


def _append_scaled(path, scale):
    """Append a copy of the latest record with its throughput scaled —
    a synthetic second measurement with zero noise anywhere else."""
    import copy

    t = load_trajectory(str(path))
    rec = copy.deepcopy(t["records"][-1])
    cell = rec["cells"][0]
    cell["cycles_per_host_sec"] = round(
        cell["cycles_per_host_sec"] * scale, 1
    )
    cell["host_seconds_best"] = round(
        cell["host_seconds_best"] / scale, 6
    )
    t["records"].append(rec)
    path.write_text(json.dumps(t))


class TestHostDiff:
    def test_round_trip_two_records_same_file(self, tmp_path):
        path = run_bench(tmp_path, "--label", "base")
        run_bench(tmp_path, "--label", "cand")
        code, out, _ = run_cli("diff", "--host", str(path), str(path),
                               "--fail-on-regression", "--threshold", "5")
        assert code == 0
        assert "label: 'base' -> 'cand'" in out

    def test_injected_regression_exit_one(self, tmp_path):
        path = run_bench(tmp_path)
        _append_scaled(path, 0.5)
        code, out, err = run_cli("diff", "--host", str(path), str(path),
                                 "--fail-on-regression")
        assert code == 1
        assert "cycles_per_host_sec" in out
        assert "FAIL" in err

    def test_improvement_not_a_regression(self, tmp_path):
        path = run_bench(tmp_path)
        _append_scaled(path, 2.0)
        code, out, err = run_cli("diff", "--host", str(path), str(path),
                                 "--fail-on-regression")
        assert code == 0, err
        assert "improvement" in out

    def test_env_fingerprint_mismatch_warns(self, tmp_path):
        base = run_bench(tmp_path)
        other = run_bench(tmp_path, name="other.json")
        t = load_trajectory(str(other))
        t["records"][-1]["env"]["python"] = "9.9.9"
        other.write_text(json.dumps(t))
        code, _, err = run_cli("diff", "--host", str(base), str(other))
        assert code == 0
        assert "fingerprint mismatch" in err
        assert "9.9.9" in err

    def test_record_index_selects(self, tmp_path):
        path = run_bench(tmp_path, "--label", "a")
        run_bench(tmp_path, "--label", "b")
        run_bench(tmp_path, "--label", "c")
        # explicit index: compare record 0 ('a') against latest ('c');
        # same-file old side steps one record back from --record
        code, out, _ = run_cli("diff", "--host", str(path), str(path),
                               "--record", "2", "--threshold", "5")
        assert code == 0
        assert "label: 'b' -> 'c'" in out

    def test_record_zero_same_file_exit_two(self, tmp_path):
        # --record picks NEW; from one file OLD is the record before it,
        # and the first record has none
        path = run_bench(tmp_path, "--label", "a")
        run_bench(tmp_path, "--label", "b")
        code, out, err = run_cli("diff", "--host", str(path), str(path),
                                 "--record", "0")
        assert code == 2
        assert "first record" in err
        assert "label:" not in out
        code, out, _ = run_cli("diff", "--host", str(path), str(path),
                               "--record", "1", "--threshold", "5")
        assert code == 0
        assert "label: 'a' -> 'b'" in out

    def test_record_zero_fairness_same_file_exit_two(self, tmp_path):
        # the fairness diff resolves records through the same rule
        from repro.obs.host import env_fingerprint, write_trajectory

        def record(label, jain):
            cell = {"lock": "lcu", "model": "A", "threads": 4,
                    "write_pct": 20, "simulated_cycles": 1000,
                    "cycles_per_host_sec": 1.0, "engine": {},
                    "jain": jain}
            return {"env": env_fingerprint(), "label": label,
                    "cells": [cell]}

        path = tmp_path / "f.json"
        write_trajectory(str(path), {
            "schema": "repro.bench-trajectory", "version": 1,
            "records": [record("a", 0.9), record("b", 0.5)],
        })
        code, _, err = run_cli("diff", str(path), str(path),
                               "--record", "0")
        assert code == 2
        assert "first record" in err
        code, out, err = run_cli("diff", str(path), str(path),
                                 "--fail-on-regression")
        assert code == 1
        assert "fairness.jain" in out
        assert "fairness regression" in err

    def test_mixed_inputs_exit_two(self, tmp_path):
        traj = run_bench(tmp_path)
        rep = tmp_path / "rep.json"
        code, _, err = run_cli(
            "microbench", "--lock", "lcu", "--threads", "2",
            "--iters", "3", "--metrics-out", str(rep),
        )
        assert code == 0
        code, _, err = run_cli("diff", "--host", str(traj), str(rep))
        assert code == 2
        assert "two bench trajectories" in err

    def test_report_without_host_section_exit_two(self, tmp_path):
        rep = tmp_path / "rep.json"
        code, _, _ = run_cli(
            "microbench", "--lock", "lcu", "--threads", "2",
            "--iters", "3", "--metrics-out", str(rep),
        )
        assert code == 0
        code, _, err = run_cli("diff", "--host", str(rep), str(rep))
        assert code == 2
        assert "perf/run.py" in err


class TestCommittedBaselines:
    """The committed BENCH_* files must stay loadable by the new tools."""

    @pytest.mark.parametrize("name", [
        "BENCH_engine.json", "BENCH_telemetry.json", "BENCH_profile.json",
    ])
    def test_committed_trajectories_validate(self, name):
        t = load_trajectory(str(REPO / name))
        validate_trajectory(t)
        assert t["records"], f"{name} has no records"

    def test_engine_baseline_self_diff(self):
        # record 1 against record 0; the records' old host sections are
        # validated but never diffed
        path = str(REPO / "BENCH_engine.json")
        code, out, _ = run_cli("diff", "--host", path, path,
                               "--record", "1", "--top", "1000")
        assert code == 0
        assert "unchanged" in out
        assert "host_ns" not in out
