"""The probe bus (repro.sim.bus): every sink attaches at once, in any
order, detaches in any order, and leaves simulated time untouched."""

import random

import pytest

from repro.check import InvariantMonitor
from repro.cpu import ops
from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.locks.base import get_algorithm
from repro.obs import (
    ContentionProfiler,
    FairnessObservatory,
    MetricsRegistry,
    SpanTracer,
    attach_machine_metrics,
)
from repro.params import model_a, model_b, small_test_model
from repro.sim.bus import ProbeBus

MODELS = {"A": model_a, "B": model_b}
TOPICS = ProbeBus.__slots__


def _bus_empty(machine) -> bool:
    return all(getattr(machine.sim.bus, t) == [] for t in TOPICS)


def _setup(lock, model):
    machine = Machine(MODELS[model]() if model in MODELS else model())
    algo = get_algorithm(lock)(machine)
    return machine, OS(machine), algo, algo.make_lock()


def _spawn(os_, algo, handle, threads=6, iters=8):
    """Spawn workers running observed acquire/release loops; returns the
    per-thread critical-section counters."""
    done = [0] * threads

    def factory(index):
        def worker(thread):
            rng = random.Random(index)
            for _ in range(iters):
                write = rng.random() < 0.5 if algo.rw_support else True
                yield from algo.acquire(thread, handle, write)
                yield ops.Compute(rng.randint(5, 40))
                yield from algo.release(thread, handle, write)
                done[index] += 1
                yield ops.Compute(rng.randint(1, 60))
        return worker

    for i in range(threads):
        os_.spawn(factory(i))
    return done


class _Sinks:
    """Attach/detach callables for every observation sink of one run."""

    def __init__(self, machine, algo):
        self.monitor = InvariantMonitor(machine, algo)
        self.profiler = ContentionProfiler()
        self.fairness = FairnessObservatory()
        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()
        self.attach = {
            "monitor": self.monitor.attach,
            "profiler": lambda: (self.profiler.attach_machine(machine),
                                 self.profiler.attach_algorithm(algo)),
            "fairness": lambda: (self.fairness.attach_machine(machine),
                                 self.fairness.attach_algorithm(algo)),
            "tracer": lambda: self.tracer.attach(machine),
            "registry": lambda: attach_machine_metrics(
                machine, self.registry, sample_interval=500),
        }
        self.detach = {
            "monitor": self.monitor.detach,
            "profiler": self.profiler.detach,
            "fairness": self.fairness.detach,
            "tracer": self.tracer.detach,
            "registry": self.registry.stop_sampling,
        }


ORDERS = {
    "forward": ("registry", "tracer", "profiler", "fairness", "monitor"),
    "shuffled": ("monitor", "fairness", "tracer", "registry", "profiler"),
}


def _bare_run(lock, model):
    machine, os_, algo, handle = _setup(lock, model)
    done = _spawn(os_, algo, handle)
    return os_.run_all(), done


class TestEverySinkAtOnce:
    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("model", ["A", "B"])
    @pytest.mark.parametrize("lock", ["lcu", "ssb", "mrsw"])
    def test_any_attach_order_any_detach_order(self, lock, model, order):
        machine, os_, algo, handle = _setup(lock, model)
        sinks = _Sinks(machine, algo)
        for name in ORDERS[order]:
            sinks.attach[name]()
        done = _spawn(os_, algo, handle)
        elapsed = os_.run_all()
        # detach in attach order: each sink leaves the bus on its own
        for name in ORDERS[order]:
            sinks.detach[name]()

        assert (elapsed, done) == _bare_run(lock, model)
        assert _bus_empty(machine)
        assert machine.sim._probes == [] and algo.observers == []
        # every sink saw the run
        assert sinks.monitor.stats["lock_events"] > 0
        assert sinks.profiler.to_dict()["locks"]
        assert sinks.fairness.to_dict()["locks"]
        assert any(s.cat == "net" for s in sinks.tracer.spans)
        assert sinks.registry.to_dict()["series"]


class TestDetachRegressions:
    def test_monitor_detach_leaves_the_bus(self):
        machine, os_, algo, handle = _setup("lcu", small_test_model)
        monitor = InvariantMonitor(machine, algo).attach()
        _spawn(os_, algo, handle)
        machine.sim.run(until=300)
        monitor.detach()
        assert _bus_empty(machine)
        stats = dict(monitor.stats)
        assert stats["hw_events"] > 0
        os_.run_all()
        assert monitor.stats == stats

    def test_profiler_detach_keeps_the_other_profiler(self):
        def profiled(extra: bool):
            machine, os_, algo, handle = _setup("lcu", model_b)
            other = ContentionProfiler()
            if extra:
                other.attach_machine(machine)
                other.attach_algorithm(algo)
            prof = ContentionProfiler()
            prof.attach_machine(machine)
            prof.attach_algorithm(algo)
            _spawn(os_, algo, handle)
            machine.sim.run(until=1_500)
            other.detach()
            os_.run_all()
            prof.detach()
            assert _bus_empty(machine)
            return prof.to_dict()

        alone = profiled(extra=False)
        assert alone["locks"]
        assert profiled(extra=True) == alone


class TestNetTopic:
    def test_after_callables_run_after_handler_in_order(self):
        machine = Machine(small_test_model())
        net = machine.net
        log = []
        net.register(("probe", 0), lambda src, p: log.append(("handler", p)))

        def sub(name, returns):
            def fn(src, dst, payload):
                log.append((name, payload))
                if returns:
                    return lambda: log.append((name + " after", payload))
            return fn

        bus = machine.sim.bus
        bus.net.extend([sub("s1", True), sub("s2", False), sub("s3", True)])
        net.send(("core", 0), ("probe", 0), "x",
                 on_deliver=lambda: log.append(("on_deliver", "x")))
        machine.sim.run()
        assert log == [
            ("s1", "x"), ("s2", "x"), ("s3", "x"), ("handler", "x"),
            ("s1 after", "x"), ("s3 after", "x"), ("on_deliver", "x"),
        ]
