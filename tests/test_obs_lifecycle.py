"""Lifecycle hardening for the telemetry layer.

Two historically sharp edges, now specified:

* :class:`MetricsRegistry` sampling — double-start, stop mid-run,
  restart on a fresh simulator, and the generation bump that makes any
  in-flight tick inert after ``stop_sampling``.
* :class:`Histogram` percentiles on empty histograms — raising instead
  of returning silent garbage, with every serialization path
  (``summary``, run reports) degrading explicitly.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram


class TestSamplingLifecycle:
    def _registry_with_gauge(self):
        reg = MetricsRegistry()
        state = {"v": 0}
        reg.gauge("g", lambda: state["v"])
        return reg, state

    def test_is_sampling_tracks_start_stop(self):
        reg, _ = self._registry_with_gauge()
        sim = Simulator()
        assert not reg.is_sampling
        reg.start_sampling(sim, interval=10)
        assert reg.is_sampling
        reg.stop_sampling()
        assert not reg.is_sampling

    def test_stop_before_start_is_idempotent(self):
        reg, _ = self._registry_with_gauge()
        reg.stop_sampling()
        reg.stop_sampling()
        assert not reg.is_sampling
        assert reg.series == {}

    def test_sampling_records_series(self):
        reg, state = self._registry_with_gauge()
        sim = Simulator()
        reg.start_sampling(sim, interval=10)
        state["v"] = 3
        sim.run(until=35)
        assert [t for t, _ in reg.series["g"]] == [10, 20, 30]
        assert all(v == 3 for _, v in reg.series["g"])

    def test_stop_mid_run_makes_inflight_tick_inert(self):
        reg, _ = self._registry_with_gauge()
        sim = Simulator()
        reg.start_sampling(sim, interval=10)
        sim.run(until=25)              # samples at 10 and 20; tick queued at 30
        reg.stop_sampling()
        sim.run(until=100)             # the queued tick fires but must no-op
        assert [t for t, _ in reg.series["g"]] == [10, 20]

    def test_double_start_single_cadence(self):
        # Restarting sampling must not leave two live tick chains behind:
        # the generation bump kills the first chain's self-reschedule.
        reg, _ = self._registry_with_gauge()
        sim = Simulator()
        reg.start_sampling(sim, interval=10)
        reg.start_sampling(sim, interval=7)
        sim.run(until=30)
        times = [t for t, _ in reg.series["g"]]
        # one stale tick from the first chain may fire (queued before the
        # restart), but it must not re-arm: only the 7-cycle cadence lives
        assert times.count(10) <= 1
        assert [t for t in times if t % 7 == 0] == [7, 14, 21, 28]

    def test_restart_on_fresh_simulator(self):
        reg, _ = self._registry_with_gauge()
        sim1 = Simulator()
        reg.start_sampling(sim1, interval=10)
        sim1.run(until=15)
        reg.stop_sampling()
        sim2 = Simulator()
        reg.start_sampling(sim2, interval=5)
        sim2.run(until=12)
        sim1.run(until=200)            # stale sim1 tick stays inert
        times = [t for t, _ in reg.series["g"]]
        assert times == [10, 5, 10]    # one from sim1, two from sim2
        assert reg.is_sampling

    def test_bad_interval_rejected(self):
        from repro.obs import MetricError

        reg, _ = self._registry_with_gauge()
        with pytest.raises(MetricError):
            reg.start_sampling(Simulator(), interval=0)
        assert not reg.is_sampling


class TestEmptyHistogram:
    def test_empty_property(self):
        h = Histogram(bucket_width=8)
        assert h.empty
        h.add(3)
        assert not h.empty

    def test_percentile_on_empty_raises(self):
        h = Histogram(bucket_width=8)
        with pytest.raises(ValueError, match="empty histogram"):
            h.percentile(50)

    @pytest.mark.parametrize("p", [-1, -0.001, 100.001, 200])
    def test_percentile_out_of_range_raises(self, p):
        h = Histogram(bucket_width=8)
        h.add(1)
        with pytest.raises(ValueError, match="percentile"):
            h.percentile(p)

    def test_percentile_bounds_ok_when_nonempty(self):
        h = Histogram(bucket_width=8)
        for v in (1, 2, 3):
            h.add(v)
        assert h.percentile(0) <= h.percentile(100)

    def test_summary_of_empty_has_no_percentiles(self):
        s = Histogram(bucket_width=8).summary()
        assert s["count"] == 0
        assert s["percentiles"] == {}

    def test_registry_dump_with_empty_histogram_validates(self):
        from repro.obs.report import build_run_report

        reg = MetricsRegistry()
        reg.histogram("h", bucket_width=8)   # never adds a sample
        report = build_run_report("microbench", {}, {},
                                  metrics=reg.to_dict())
        assert report["metrics"]["histograms"]["h"]["percentiles"] == {}
