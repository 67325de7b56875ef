"""End-to-end telemetry smoke: a minimal figure sweep through the CLI
with ``--metrics-out`` / ``--trace-out`` must produce a schema-valid
RunReport and a Perfetto-loadable Chrome trace."""

import json

import pytest

from repro.harness import figures
from repro.obs import MetricsRegistry, SpanTracer, validate_chrome_trace
from repro.obs.report import build_run_report, load_run_report


@pytest.mark.telemetry
class TestTelemetrySmoke:
    def test_fig9a_minimal_with_artifacts(self, tmp_path):
        registry = MetricsRegistry()
        tracer = SpanTracer()
        result = figures.figure9(
            "A", thread_counts=(2, 4), write_ratios=(100,),
            iters_per_thread=5,
            registry=registry, tracer=tracer, sample_interval=2000,
        )

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        report = build_run_report(
            "figure",
            {"figure": "fig9a", "scale": 0},
            {"figure": result.figure, "xs": result.xs,
             "series": result.series, "checks": result.checks},
            metrics=registry.to_dict(),
        )
        from repro.obs.report import write_run_report

        write_run_report(str(metrics_path), report)
        tracer.write_chrome_trace(str(trace_path))

        # both artifacts validate
        loaded = load_run_report(str(metrics_path))
        assert loaded["kind"] == "figure"
        assert loaded["results"]["figure"] == "fig9a"
        counters = loaded["metrics"]["counters"]
        # counters accumulated across all four runs of the sweep
        assert counters["engine.events_processed"] > 0
        assert counters["lcu.total.acquires"] > 0
        assert counters["ssb.acquires"] > 0
        assert counters["bench.total_cs"] == (2 + 4) * 5 * 2  # both locks
        # gauge time series were sampled
        assert loaded["metrics"]["series"]

        trace = json.loads(trace_path.read_text())
        validate_chrome_trace(trace)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        cats = {e["cat"] for e in xs}
        assert "lock" in cats and "net" in cats

    def test_cli_microbench_artifacts(self, tmp_path):
        from repro.__main__ import main as repro_main

        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        rc = repro_main([
            "microbench", "--lock", "lcu", "--threads", "4",
            "--iters", "10",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--sample-interval", "1000",
        ])
        assert rc == 0
        report = load_run_report(str(metrics_path))
        assert report["kind"] == "microbench"
        assert report["config"]["machine"]["name"] == "A"
        assert report["results"]["total_cs"] == 40
        validate_chrome_trace(json.loads(trace_path.read_text()))

        # the report verb accepts what --metrics-out wrote
        assert repro_main(["report", str(metrics_path)]) == 0

    def test_report_verb_rejects_invalid(self, tmp_path):
        from repro.__main__ import main as repro_main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert repro_main(["report", str(bad)]) == 1
        assert repro_main(["report", str(tmp_path / "missing.json")]) == 2
