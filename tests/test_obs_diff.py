"""Unit tests for RunReport diffing (repro.obs.diff)."""

import pytest

from repro.obs.diff import (
    DiffEntry,
    RunReportDiff,
    diff_run_reports,
    direction_of,
)
from repro.obs.report import build_run_report


def report(results=None, counters=None, config=None, histograms=None):
    metrics = {
        "counters": counters or {},
        "gauges": {},
        "histograms": histograms or {},
        "series": {},
    }
    return build_run_report("microbench", config or {}, results or {},
                            metrics=metrics)


class TestDirection:
    @pytest.mark.parametrize("name,expected", [
        ("results.acquire_latency_mean", "lower"),
        ("results.elapsed", "lower"),
        ("metrics.counters.net.messages_sent", "lower"),
        ("profile.lcu@0x1000.queue_wait.mean", "lower"),
        ("results.total_cs", "higher"),
        ("results.fairness", "higher"),
        ("metrics.counters.stm.commits", "higher"),
        ("results.write_pct", None),
        ("results.threads", None),
    ])
    def test_substring_heuristics(self, name, expected):
        assert direction_of(name) == expected

    def test_higher_wins_ties(self):
        # throughput-like even though it mentions "cycles"
        assert direction_of("bench.total_cs_cycles") == "higher"


class TestVerdicts:
    def test_self_diff_all_unchanged(self):
        r = report(results={"elapsed": 100, "total_cs": 50},
                   counters={"net.messages_sent": 7})
        d = diff_run_reports(r, r)
        assert not d.has_regressions()
        assert all(e.verdict == "unchanged" for e in d.entries)

    def test_latency_increase_is_regression(self):
        old = report(results={"acquire_latency_mean": 100.0})
        new = report(results={"acquire_latency_mean": 150.0})
        d = diff_run_reports(old, new, threshold=0.2)
        (e,) = d.regressions
        assert e.key == "results.acquire_latency_mean"
        assert e.ratio == pytest.approx(0.5)

    def test_latency_decrease_is_improvement(self):
        old = report(results={"acquire_latency_mean": 100.0})
        new = report(results={"acquire_latency_mean": 60.0})
        d = diff_run_reports(old, new, threshold=0.2)
        assert not d.has_regressions()
        assert [e.key for e in d.improvements] == [
            "results.acquire_latency_mean"
        ]

    def test_throughput_drop_is_regression(self):
        old = report(results={"total_cs": 100})
        new = report(results={"total_cs": 60})
        d = diff_run_reports(old, new, threshold=0.2)
        assert [e.key for e in d.regressions] == ["results.total_cs"]

    def test_unknown_direction_never_gates(self):
        old = report(results={"write_pct": 100})
        new = report(results={"write_pct": 50})
        d = diff_run_reports(old, new, threshold=0.1)
        (e,) = [x for x in d.entries if x.key == "results.write_pct"]
        assert e.verdict == "changed"
        assert not d.has_regressions()

    def test_within_threshold_unchanged(self):
        old = report(results={"elapsed": 100.0})
        new = report(results={"elapsed": 105.0})
        d = diff_run_reports(old, new, threshold=0.10)
        assert all(e.verdict == "unchanged" for e in d.entries)

    def test_zero_baseline_always_exceeds(self):
        old = report(counters={"net.nacks": 0})
        new = report(counters={"net.nacks": 3})
        d = diff_run_reports(old, new, threshold=10.0)
        (e,) = d.regressions
        assert e.key == "metrics.counters.net.nacks"
        assert e.ratio is None

    def test_added_and_removed(self):
        old = report(counters={"a.gone": 1})
        new = report(counters={"b.fresh": 2})
        d = diff_run_reports(old, new)
        verdicts = {e.key: e.verdict for e in d.entries}
        assert verdicts["metrics.counters.a.gone"] == "removed"
        assert verdicts["metrics.counters.b.fresh"] == "added"
        assert not d.has_regressions()

    def test_negative_threshold_rejected(self):
        r = report()
        with pytest.raises(ValueError):
            diff_run_reports(r, r, threshold=-0.1)


class TestComparableExtraction:
    def test_histogram_mean_and_p95(self):
        h = {"count": 3, "mean": 10.0, "min": 1, "max": 20,
             "bucket_width": 8, "percentiles": {"p50": 9.0, "p95": 18.0}}
        old = report(histograms={"bench.acquire_latency": h})
        h2 = dict(h, mean=20.0, percentiles={"p50": 9.0, "p95": 40.0})
        new = report(histograms={"bench.acquire_latency": h2})
        d = diff_run_reports(old, new, threshold=0.1)
        keys = {e.key for e in d.regressions}
        assert "metrics.histograms.bench.acquire_latency.mean" in keys
        assert "metrics.histograms.bench.acquire_latency.p95" in keys

    def test_empty_histogram_percentiles_skipped(self):
        h = {"count": 0, "mean": 0.0, "min": None, "max": None,
             "bucket_width": 8, "percentiles": {}}
        d = diff_run_reports(report(histograms={"h": h}),
                             report(histograms={"h": h}))
        assert all("p95" not in e.key for e in d.entries)

    def test_profile_phase_means_compared(self):
        from repro.harness.microbench import run_microbench
        from repro.obs.profile import ContentionProfiler
        from repro.params import small_test_model

        def profiled(cs):
            p = ContentionProfiler()
            run_microbench(small_test_model(), "lcu", 4,
                           iters_per_thread=10, cs_cycles=cs, seed=1,
                           profiler=p)
            return build_run_report("microbench", {"cs_cycles": cs}, {},
                                    profile=p.to_dict())

        d = diff_run_reports(profiled(40), profiled(120), threshold=0.2)
        assert any(e.key.startswith("profile.") and "queue_wait" in e.key
                   for e in d.regressions)
        assert ("cs_cycles", 40, 120) in d.config_mismatches

    def test_bools_not_compared(self):
        old = report(results={"ok": True})
        new = report(results={"ok": False})
        d = diff_run_reports(old, new)
        assert all(e.key != "results.ok" for e in d.entries)


class TestOutputs:
    def test_config_mismatch_listed(self):
        d = diff_run_reports(report(config={"lock": "lcu", "threads": 8}),
                             report(config={"lock": "mcs", "threads": 8}))
        assert d.config_mismatches == [("lock", "lcu", "mcs")]
        assert "lock: 'lcu' -> 'mcs'" in d.summarize()

    def test_to_dict_counts(self):
        old = report(results={"elapsed": 100.0, "total_cs": 10})
        new = report(results={"elapsed": 200.0, "total_cs": 10})
        dd = diff_run_reports(old, new).to_dict()
        assert dd["schema"] == "repro.run-report-diff"
        assert dd["counts"]["regression"] == 1
        assert dd["counts"]["unchanged"] == 1
        assert len(dd["entries"]) == 2

    def test_summarize_orders_by_severity(self):
        old = report(results={"elapsed": 100.0, "acquire_lat": 10.0})
        new = report(results={"elapsed": 120.0, "acquire_lat": 100.0})
        text = diff_run_reports(old, new).summarize(top=5)
        lines = [l for l in text.split("\n") if "results." in l]
        # the 10x latency blowup sorts above the 1.2x elapsed one
        assert "acquire_lat" in lines[0]

    def test_empty_reports(self):
        d = diff_run_reports(report(), report())
        assert d.entries == []
        assert "nothing comparable" in d.summarize()
