"""Critical-section transfer-time microbenchmark (paper Section IV-A).

Multiple threads iteratively acquire one lock protecting a short critical
section; the lock-handling time dominates.  The paper reports cycles per
critical section while varying the thread count, the reader/writer mix
and the lock implementation (Figures 9 and 10).

Two modes:

* ``iterations`` — each thread runs a fixed number of critical sections;
  cycles/CS = elapsed / total CS (the paper's methodology).
* ``duration`` — run for a fixed simulated time and count per-thread
  acquisitions; used by the fairness benches (Jain index, writer
  starvation).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List

from repro.cpu import ops
from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.locks.base import get_algorithm
from repro.obs.instrument import attach_machine_metrics, finish_run
from repro.params import MachineConfig
from repro.sim.stats import Histogram, jain_fairness


@dataclasses.dataclass
class MicrobenchResult:
    """Outcome of one microbenchmark configuration."""

    lock: str
    model: str
    threads: int
    write_pct: int
    total_cs: int
    elapsed: int
    cycles_per_cs: float
    acquire_latency_mean: float
    per_thread_cs: List[int]
    fairness: float
    hub_utilisation: float
    writer_cs: int = 0
    reader_cs: int = 0
    acquire_latency_p50: float = 0.0
    acquire_latency_p95: float = 0.0
    acquire_latency_p99: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"{self.lock} model {self.model} t={self.threads} "
            f"w={self.write_pct}%: {self.cycles_per_cs:.1f} cyc/CS"
        )


def run_microbench(
    config: MachineConfig,
    lock_name: str,
    threads: int,
    write_pct: int = 100,
    iters_per_thread: int = 200,
    cs_cycles: int = 40,
    think_cycles: int = 20,
    seed: int = 1,
    mode: str = "iterations",
    duration: int = 400_000,
    fixed_roles: bool = False,
    max_cycles: int = 2_000_000_000,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
    profiler=None,
    fairness=None,
) -> MicrobenchResult:
    """Run the single-lock critical-section benchmark.

    ``write_pct`` is the probability (in percent) that an access is a
    write, unless ``fixed_roles`` is set, in which case the first
    ``round(threads * write_pct / 100)`` threads are permanent writers
    and the rest permanent readers (used for starvation measurements).

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) collects machine
    counters and the acquire-latency histogram; ``tracer`` (a
    :class:`repro.obs.SpanTracer`) records per-thread acquire / CS spans
    and network message spans; ``profiler`` (a
    :class:`repro.obs.profile.ContentionProfiler`) attributes acquire
    latency to protocol phases via hardware probes; ``fairness`` (a
    :class:`repro.obs.fairness.FairnessObservatory`) keeps the
    arrival-vs-grant overtake ledger, per-mode wait histograms,
    starvation watchdog and SLO clock (``--fairness``).  All default to
    off and cost nothing when absent — and none of them changes
    simulated cycle counts when present.
    """
    if mode not in ("iterations", "duration"):
        raise ValueError(f"unknown mode {mode!r}")
    machine = Machine(config)
    os_ = OS(machine)
    algo = get_algorithm(lock_name)(machine)
    handle = algo.make_lock()

    if registry is not None:
        attach_machine_metrics(machine, registry, sample_interval)
    if tracer is not None:
        tracer.attach(machine)
    if profiler is not None:
        profiler.attach_machine(machine)
    if fairness is not None:
        fairness.attach_machine(machine)
        if registry is not None:
            fairness.attach_registry(registry)

    per_thread_cs = [0] * threads
    writer_cs = [0]
    reader_cs = [0]
    acquire_lat = Histogram(bucket_width=32)
    n_writers = round(threads * write_pct / 100.0)
    # both the profiler and the fairness observatory read the lock
    # events the observed wrappers publish; either one being attached
    # routes lock ops through them (same instants, same simulated cycles)
    observed = profiler is not None or fairness is not None

    def worker_factory(index: int):
        def worker(thread):
            rng = random.Random(seed * 7919 + index)
            sim = machine.sim
            track = f"thread {index}"

            def one_iteration():
                if fixed_roles:
                    write = index < n_writers
                else:
                    write = rng.random() * 100 < write_pct
                t0 = sim.now
                if tracer is not None:
                    sid = tracer.begin(
                        "acquire", cat="lock", track=track, write=write
                    )
                if observed:
                    # observed wrappers fire at the same instants as the
                    # t0 capture / histogram add (no yields in between),
                    # so profiled latency == measured latency exactly
                    yield from algo.acquire(thread, handle, write)
                else:
                    yield from algo.lock(thread, handle, write)
                acquire_lat.add(sim.now - t0)
                if tracer is not None:
                    tracer.end(sid)
                    sid = tracer.begin("cs", cat="lock", track=track)
                yield ops.Compute(cs_cycles)
                if observed:
                    yield from algo.release(thread, handle, write)
                else:
                    yield from algo.unlock(thread, handle, write)
                if tracer is not None:
                    tracer.end(sid)
                per_thread_cs[index] += 1
                if write:
                    writer_cs[0] += 1
                else:
                    reader_cs[0] += 1
                if think_cycles:
                    yield ops.Compute(rng.randint(1, think_cycles))

            if mode == "iterations":
                for _ in range(iters_per_thread):
                    yield from one_iteration()
            else:
                while sim.now < duration:
                    yield from one_iteration()

        return worker

    for i in range(threads):
        os_.spawn(worker_factory(i))
    elapsed = os_.run_all(max_cycles=max_cycles)
    if registry is not None and registry.is_sampling:
        # the self-rescheduling sample tick would otherwise keep the
        # event queue busy and force drain() to its cycle cap
        registry.sample(machine.sim.now)
        registry.stop_sampling()
    machine.drain()

    total = sum(per_thread_cs)
    if registry is not None:
        registry.counter("bench.total_cs").inc(total)
        registry.counter("bench.writer_cs").inc(writer_cs[0])
        registry.counter("bench.reader_cs").inc(reader_cs[0])
        registry.histogram(
            "bench.acquire_latency", bucket_width=acquire_lat.bucket_width
        ).merge(acquire_lat)
    finish_run(machine, registry, tracer, profiler=profiler,
               fairness=fairness)
    # the Jain index: observatory-backed when attached (the one shared
    # ledger implementation), computed from per-thread grant counts
    # either way — both paths agree by construction
    if fairness is not None:
        fair_summary = fairness.lock_summary(algo.lock_id(handle))
    else:
        fair_summary = None
    fairness_index = (
        fair_summary["jain"] if fair_summary is not None
        else jain_fairness(per_thread_cs)
    )
    return MicrobenchResult(
        lock=lock_name,
        model=config.name,
        threads=threads,
        write_pct=write_pct,
        total_cs=total,
        elapsed=elapsed,
        cycles_per_cs=elapsed / total if total else float("inf"),
        acquire_latency_mean=acquire_lat.acc.mean,
        per_thread_cs=per_thread_cs,
        fairness=fairness_index,
        hub_utilisation=machine.net.hub_utilisation(),
        writer_cs=writer_cs[0],
        reader_cs=reader_cs[0],
        acquire_latency_p50=(
            0.0 if acquire_lat.empty else acquire_lat.percentile(50)
        ),
        acquire_latency_p95=(
            0.0 if acquire_lat.empty else acquire_lat.percentile(95)
        ),
        acquire_latency_p99=(
            0.0 if acquire_lat.empty else acquire_lat.percentile(99)
        ),
    )


def sweep(
    config_factory,
    lock_names: List[str],
    thread_counts: List[int],
    write_pct: int,
    **kwargs,
) -> Dict[str, List[MicrobenchResult]]:
    """Run every (lock, thread-count) combination; keyed by lock name."""
    out: Dict[str, List[MicrobenchResult]] = {}
    for name in lock_names:
        out[name] = [
            run_microbench(config_factory(), name, t, write_pct, **kwargs)
            for t in thread_counts
        ]
    return out
