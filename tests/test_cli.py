"""Tests for the ``python -m repro`` command-line interface."""

import io
import pathlib
from contextlib import redirect_stdout

import pytest

from repro.__main__ import build_parser, main
from repro.obs.report import load_run_report

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestCli:
    def test_tables(self):
        code, out = run_cli("tables")
        assert code == 0
        assert "Figure 1" in out and "Figure 8" in out

    def test_locks_lists_everything(self):
        code, out = run_cli("locks")
        assert code == 0
        for name in ("lcu", "ssb", "mcs", "mrsw", "clh", "hbo"):
            assert name in out

    def test_microbench(self):
        code, out = run_cli(
            "microbench", "--threads", "4", "--iters", "20",
            "--lock", "mcs",
        )
        assert code == 0
        assert "cyc/CS" in out

    def test_stm(self):
        code, out = run_cli(
            "stm", "--threads", "2", "--size", "64", "--txns", "8",
        )
        assert code == 0
        assert "cyc/txn" in out

    def test_app(self):
        code, out = run_cli(
            "app", "--name", "radiosity", "--lock", "pthread",
            "--threads", "4", "--seeds", "1",
        )
        assert code == 0
        assert "radiosity" in out

    def test_unknown_lock_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["microbench", "--lock", "nope"])

    def test_figure_names_registered(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "fig9a"])
        assert args.name == "fig9a"
        for name in ("fig9b", "fig10a", "fig11a", "fig12a", "fig13"):
            parser.parse_args(["figure", name])

    def test_spelled_out_choices_match_registries(self):
        from repro import __main__ as cli
        from repro.apps.base import all_apps
        from repro.harness.stm_bench import STRUCTURES
        from repro.stm.core import ObjectSTM

        assert cli._STM_VARIANTS == tuple(sorted(ObjectSTM.VARIANTS))
        assert cli._STM_STRUCTURES == tuple(sorted(STRUCTURES))
        assert cli._APPS == tuple(sorted(all_apps()))


#: one tiny sweep cell, run serially (its thread count comes per test)
TINY_SWEEP = ("sweep", "--locks", "lcu", "--iters", "3", "--workers", "0")


class TestMatrixFlags:
    """A bad ``--locks``/``--models``/``--threads``/``--seeds`` entry is
    reported on stderr with exit 2, before any cell runs."""

    def test_unknown_lock_exit_two(self, capsys):
        code, _ = run_cli("sweep", "--locks", "nope")
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_sweep_unknown_model_exit_two(self, capsys):
        code, out = run_cli(*TINY_SWEEP, "--threads", "2", "--models", "Z")
        assert code == 2
        assert "unknown model 'Z'" in capsys.readouterr().err
        assert "model B" not in out

    def test_fairness_unknown_model_exit_two(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code, _ = run_cli("fairness", "--quick", "--locks", "lcu",
                          "--models", "Z", "--metrics-out", str(path))
        assert code == 2
        assert "unknown model 'Z'" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("flag", ["--threads", "--seeds"])
    def test_sweep_non_integer_entry_exit_two(self, flag, capsys):
        code, _ = run_cli(*TINY_SWEEP, flag, "4,x")
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "'4,x'" in err


class TestCommittedBaselines:
    """The committed BENCH_* files stay readable by the CLI."""

    def test_telemetry_baseline_is_run_report(self):
        report = load_run_report(str(REPO / "BENCH_telemetry.json"))
        assert report["kind"] == "microbench"
        assert report["metrics"]["counters"]["engine.events_processed"] > 0

    def test_fairness_baseline_validates_and_reports(self):
        path = str(REPO / "BENCH_fairness.json")
        report = load_run_report(path)
        assert report["kind"] == "fairness"
        assert len(report["results"]["cells"]) == 14
        code, out = run_cli("report", path)
        assert code == 0
        assert "kind=fairness" in out and "jain" in out
