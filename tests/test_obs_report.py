"""Unit + golden-file tests for run reports (repro.obs.report).

The golden files pin the exported JSON byte-for-byte for a small,
deterministic run.  If the schema or exporters change intentionally,
regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_report.py
"""

import json
import os
import pathlib

import pytest

from repro.harness.microbench import run_microbench
from repro.obs import MetricsRegistry, SpanTracer, validate_chrome_trace
from repro.obs.report import (
    ReportValidationError,
    build_run_report,
    load_run_report,
    summarize_run_report,
    validate_run_report,
    write_run_report,
)
from repro.params import small_test_model

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_REPORT = DATA / "golden_run_report.json"
GOLDEN_TRACE = DATA / "golden_trace.json"


class TestBuildValidate:
    def test_roundtrip(self, tmp_path):
        report = build_run_report(
            "microbench",
            {"lock": "lcu", "threads": 2},
            {"cycles_per_cs": 81.5, "nan_field": float("nan")},
        )
        assert report["results"]["nan_field"] is None  # JSON has no NaN
        path = tmp_path / "r.json"
        write_run_report(str(path), report)
        assert load_run_report(str(path)) == report

    def test_dataclass_coercion(self):
        import dataclasses

        @dataclasses.dataclass
        class R:
            x: int
            ys: tuple

        report = build_run_report("stm", {"a": 1}, R(3, (1, 2)))
        assert report["results"] == {"x": 3, "ys": [1, 2]}

    @pytest.mark.parametrize(
        "mutation",
        [
            {"schema": "other"},
            {"version": 99},
            {"kind": "nope"},
            {"config": []},
            {"results": 3},
            {"metrics": {"counters": {"c": "NaN"}, "gauges": {},
                         "histograms": {}, "series": {}}},
            {"metrics": {"counters": {}, "gauges": {},
                         "histograms": {"h": {"count": 1}}, "series": {}}},
            {"metrics": {"counters": {}, "gauges": {}, "histograms": {},
                         "series": {"s": [[1]]}}},
        ],
    )
    def test_validation_failures(self, mutation):
        report = build_run_report("app", {}, {})
        report.update(mutation)
        with pytest.raises(ReportValidationError):
            validate_run_report(report)

    def test_error_lists_every_problem(self):
        bad = {"schema": "x", "version": 0, "kind": "y",
               "config": 1, "results": 2, "metrics": 3}
        with pytest.raises(ReportValidationError) as exc:
            validate_run_report(bad)
        assert len(exc.value.errors) >= 5

    def test_summarize(self):
        reg = MetricsRegistry()
        reg.counter("net.messages_sent").inc(7)
        report = build_run_report(
            "microbench", {"lock": "lcu", "threads": 4},
            {"cycles_per_cs": 80.0}, metrics=reg.to_dict(),
        )
        text = summarize_run_report(report)
        assert "kind=microbench" in text
        assert "lock=lcu" in text
        assert "cycles_per_cs = 80" in text
        assert "net.messages_sent = 7" in text


def _golden_run():
    """One tiny, fully deterministic instrumented run."""
    registry = MetricsRegistry()
    tracer = SpanTracer()
    result = run_microbench(
        small_test_model(), "lcu", threads=2, write_pct=100,
        iters_per_thread=3, cs_cycles=10, think_cycles=0, seed=1,
        registry=registry, tracer=tracer, sample_interval=200,
    )
    report = build_run_report(
        "microbench",
        {"lock": "lcu", "model": "T", "threads": 2, "write_pct": 100,
         "iters_per_thread": 3, "seed": 1},
        result,
        metrics=registry.to_dict(),
    )
    return report, tracer


class TestGolden:
    def test_golden_files(self, tmp_path):
        report, tracer = _golden_run()
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.json"
        write_run_report(str(report_path), report)
        tracer.write_chrome_trace(str(trace_path))

        if os.environ.get("REPRO_REGEN_GOLDEN"):
            DATA.mkdir(exist_ok=True)
            GOLDEN_REPORT.write_text(report_path.read_text())
            GOLDEN_TRACE.write_text(trace_path.read_text())
            pytest.skip("golden files regenerated")

        assert GOLDEN_REPORT.exists(), (
            "golden file missing; run with REPRO_REGEN_GOLDEN=1"
        )
        assert report_path.read_text() == GOLDEN_REPORT.read_text()
        assert trace_path.read_text() == GOLDEN_TRACE.read_text()

    def test_golden_artifacts_valid(self):
        validate_run_report(json.loads(GOLDEN_REPORT.read_text()))
        validate_chrome_trace(json.loads(GOLDEN_TRACE.read_text()))
