"""Unit tests for the metrics registry (repro.obs.registry)."""

import pytest

from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.harness.microbench import run_microbench
from repro.obs import MetricError, MetricsRegistry
from repro.params import small_test_model
from repro.sim.engine import Simulator


class TestNames:
    def test_valid_hierarchical_names(self):
        reg = MetricsRegistry()
        for name in ("a", "lcu.core3.enqueue", "net.hub-out.bytes", "x_1.y"):
            reg.counter(name)
        assert reg.names == sorted(
            ["a", "lcu.core3.enqueue", "net.hub-out.bytes", "x_1.y"]
        )

    @pytest.mark.parametrize(
        "bad", ["", ".", "a..b", ".a", "a.", "a b", "a/b", "é"]
    )
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(MetricError):
            MetricsRegistry().counter(bad)

    @pytest.mark.parametrize("bad", ["a b", "a..b"])
    def test_invalid_name_raises_on_every_fresh_registry(self, bad):
        """However many valid names came before, on this registry or
        another, an invalid name raises."""
        for _ in range(3):
            reg = MetricsRegistry()
            reg.counter("ok.name")
            for make in (reg.counter, reg.gauge, reg.histogram):
                with pytest.raises(MetricError):
                    make(bad)

    def test_kind_collision_is_per_registry(self):
        MetricsRegistry().counter("x.shared")
        reg = MetricsRegistry()
        reg.gauge("x.shared")       # a counter elsewhere is no collision
        with pytest.raises(MetricError):
            reg.counter("x.shared")

    def test_cross_kind_collision(self):
        reg = MetricsRegistry()
        reg.counter("x.count")
        with pytest.raises(MetricError):
            reg.gauge("x.count")
        with pytest.raises(MetricError):
            reg.histogram("x.count")
        reg.gauge("x.level")
        with pytest.raises(MetricError):
            reg.counter("x.level")

    def test_same_kind_is_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = MetricsRegistry().counter("c")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_counter_rejects_negative(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_callback_and_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("g", lambda: 7)
        assert g.read() == 7.0
        g.set(3)
        assert g.read() == 3.0  # set() overrides the callback

    def test_gauge_rebind(self):
        reg = MetricsRegistry()
        reg.gauge("g", lambda: 1)
        reg.gauge("g", lambda: 2)  # second machine re-binds
        assert reg.gauge("g").read() == 2.0

    def test_histogram_width_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", bucket_width=10)
        with pytest.raises(MetricError):
            reg.histogram("h", bucket_width=20)


class TestSampling:
    def test_periodic_sampling(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("clock", lambda: sim.now)
        reg.start_sampling(sim, 10)
        sim.at(35, lambda: None)
        sim.run(until=35)
        reg.stop_sampling()
        assert reg.series["clock"] == [(10, 10.0), (20, 20.0), (30, 30.0)]

    def test_stop_sampling_halts_ticks(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("g", lambda: 1)
        reg.start_sampling(sim, 10)
        sim.at(15, reg.stop_sampling)
        sim.at(100, lambda: None)
        sim.run(until=100)
        assert reg.series["g"] == [(10, 1.0)]

    def test_gauge_added_or_rebound_mid_run_sampled_next_tick(self):
        """Sampling reads every gauge in name order, and a gauge added
        or re-bound between ticks is read from the next tick on."""
        sim = Simulator()
        reg = MetricsRegistry()
        reads = []

        def gauge_fn(name, value):
            def read():
                reads.append((sim.now, name))
                return value
            return read

        reg.gauge("m.mid", gauge_fn("m.mid", 1))
        reg.gauge("z.last", gauge_fn("z.last", 2))
        reg.start_sampling(sim, 10)

        def change():
            reg.gauge("a.first", gauge_fn("a.first", 3))   # new
            reg.gauge("m.mid", gauge_fn("m.mid", 4))       # re-bound
            reg.gauge("z.last").set(5)                     # now explicit

        sim.at(15, change)
        sim.at(35, lambda: None)
        sim.run(until=35)
        reg.stop_sampling()
        assert reg.series == {
            "m.mid": [(10, 1.0), (20, 4.0), (30, 4.0)],
            "z.last": [(10, 2.0), (20, 5), (30, 5)],
            "a.first": [(20, 3.0), (30, 3.0)],
        }
        assert reads == [
            (10, "m.mid"), (10, "z.last"),
            (20, "a.first"), (20, "m.mid"),
            (30, "a.first"), (30, "m.mid"),
        ]
        assert list(reg.to_dict()["series"]) == ["a.first", "m.mid", "z.last"]

    def test_interval_must_be_positive(self):
        with pytest.raises(MetricError):
            MetricsRegistry().start_sampling(Simulator(), 0)

    def test_sampling_deterministic_across_runs(self):
        """Same seed + same interval -> bit-identical gauge time series."""

        def one_run():
            reg = MetricsRegistry()
            run_microbench(
                small_test_model(), "lcu", threads=3, write_pct=50,
                iters_per_thread=10, seed=7,
                registry=reg, sample_interval=500,
            )
            return reg.to_dict()

        assert one_run() == one_run()


class TestExport:
    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bucket_width=10).add(42)
        reg.series["g"] = [(0, 0.0), (10, 1.5)]
        d = reg.to_dict()
        assert d["counters"] == {"c": 5}
        assert d["gauges"] == {"g": 1.5}
        assert d["histograms"]["h"]["count"] == 1
        assert d["series"] == {"g": [[0, 0.0], [10, 1.5]]}


class TestHarvest:
    def test_harvest_small_machine(self):
        """attach + harvest fills the engine/net/mem/lcu/lrt sections."""
        from repro.obs import attach_machine_metrics, finish_run

        config = small_test_model()
        machine = Machine(config)
        os_ = OS(machine)
        reg = MetricsRegistry()
        attach_machine_metrics(machine, reg)

        from repro.locks.base import get_algorithm

        algo = get_algorithm("lcu")(machine)
        handle = algo.make_lock()

        def worker(thread):
            yield from algo.lock(thread, handle, True)
            yield from algo.unlock(thread, handle, True)

        os_.spawn(worker)
        os_.run_all()
        finish_run(machine, reg)

        d = reg.to_dict()
        assert d["counters"]["engine.events_processed"] > 0
        assert d["counters"]["net.messages_sent"] > 0
        assert d["counters"]["lcu.total.acquires"] >= 1
        assert any(n.startswith("lrt.") for n in d["counters"])
        assert d["gauges"]["lcu.core0.entries_highwater"] >= 1
