"""Continuous engine benchmarking (``python -m repro bench``).

The simulator's own speed is a first-class measured quantity: this
module runs a pinned matrix of microbenchmark cells (locks x models x
thread counts), times each cell best-of-N on the host clock, runs one
extra *instrumented* pass per cell for engine event-queue telemetry,
and appends the result as one record to a machine-readable trajectory
(``BENCH_engine.json``).  ``repro diff --host`` compares two records:
cycles per host second and the engine counters.  Per-layer host time
is not measured here; ``python perf/run.py --workload W --trace``
reports it.

Methodology notes:

* **Timing repeats are uninstrumented.**  The N timed repeats run with
  no registry, tracer or profiler attached, so the recorded
  ``host_seconds_best`` is the real hot path.  The simulator is
  deterministic, so the extra instrumented pass re-produces bit-
  identical simulated results (asserted in tests) while collecting
  counters; its own (slower) wall time is recorded separately as
  ``instrumented_host_seconds``.
* **Best-of-N, with dispersion.**  Host wall-clock on shared machines
  is noisy; the best repeat is the least-interfered-with run and the
  number to optimise, while mean/stdev/relative spread
  (:func:`repro.sim.stats.dispersion`) quantify how much to trust it.
* **Environment fingerprint.**  Every record stamps python version,
  implementation, platform and CPU count (:func:`repro.obs.host.
  env_fingerprint`); ``repro diff --host`` warns when two records were
  measured on different environments.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional

from repro.harness.microbench import run_microbench
from repro.obs.host import env_fingerprint
from repro.obs.registry import MetricsRegistry
from repro.obs.report import build_run_report
from repro.params import model_a, model_b
from repro.sim.stats import dispersion

#: the pinned default matrix — stable cell set so trajectory records
#: stay comparable across PRs.  One software lock (mcs), the paper's
#: hardware lock (lcu) and the RW baseline (mrsw) over both machine
#: models at a low and a high thread count.
DEFAULT_LOCKS = ("lcu", "mcs", "mrsw")
DEFAULT_MODELS = ("A", "B")
DEFAULT_THREADS = (4, 16)
DEFAULT_WRITE_PCT = 100
DEFAULT_ITERS = 150
DEFAULT_REPEATS = 5
DEFAULT_SEED = 1

#: the --quick cell: the configuration every BENCH baseline and CI
#: smoke gate pins (same as BENCH_telemetry.json's microbench).
QUICK_CELL = ("lcu", "A", 16)
QUICK_REPEATS = 3


@dataclasses.dataclass(frozen=True)
class BenchCellSpec:
    """One cell of the bench matrix."""

    lock: str
    model: str
    threads: int
    write_pct: int = DEFAULT_WRITE_PCT
    iters: int = DEFAULT_ITERS
    seed: int = DEFAULT_SEED

    def describe(self) -> str:
        return (f"{self.lock} model {self.model} t={self.threads} "
                f"w={self.write_pct}% x{self.iters}")


def default_matrix(
    locks=DEFAULT_LOCKS, models=DEFAULT_MODELS, threads=DEFAULT_THREADS,
    write_pct=DEFAULT_WRITE_PCT, iters=DEFAULT_ITERS, seed=DEFAULT_SEED,
) -> List[BenchCellSpec]:
    return [
        BenchCellSpec(lock, model, t, write_pct, iters, seed)
        for lock in locks for model in models for t in threads
    ]


def quick_matrix(iters: int = DEFAULT_ITERS) -> List[BenchCellSpec]:
    lock, model, threads = QUICK_CELL
    return [BenchCellSpec(lock, model, threads, iters=iters)]


def _config(model: str):
    return model_a() if model.upper() == "A" else model_b()


def run_cell(
    spec: BenchCellSpec,
    repeats: int = DEFAULT_REPEATS,
    profile: bool = False,
    sample_interval: int = 0,
    embed_report: bool = False,
) -> Dict[str, Any]:
    """Run one cell: ``repeats`` uninstrumented timing passes plus one
    instrumented pass (registry always; contention-profiler phase means
    when ``profile``), and return the JSON-safe cell dict.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    timings: List[float] = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_microbench(
            _config(spec.model), spec.lock, spec.threads, spec.write_pct,
            iters_per_thread=spec.iters, seed=spec.seed,
        )
        timings.append(time.perf_counter() - t0)
    assert result is not None
    stats = dispersion(timings)

    # instrumented pass: deterministic re-run of the same cell for
    # event-queue counters.  Its wall time is recorded
    # (bench.instrumented_pass.host_ns via a registry HostTimer and the
    # instrumented_host_seconds field) but never used for throughput.
    registry = MetricsRegistry()
    profiler = None
    if profile:
        from repro.obs.profile import ContentionProfiler
        profiler = ContentionProfiler()
    timer = registry.timer("bench.instrumented_pass.host_ns").start()
    instr = run_microbench(
        _config(spec.model), spec.lock, spec.threads, spec.write_pct,
        iters_per_thread=spec.iters, seed=spec.seed,
        registry=registry, sample_interval=sample_interval,
        profiler=profiler,
    )
    instr_ns = timer.stop()

    counters = {c: registry.counter(c).value for c in (
        "engine.events_processed", "engine.heap_pushes",
        "engine.heap_pops", "engine.signal_waits",
        "engine.signal_cancels", "engine.signal_fires",
    )}
    engine = {
        "events_processed": counters["engine.events_processed"],
        "heap_pushes": counters["engine.heap_pushes"],
        "heap_pops": counters["engine.heap_pops"],
        "queue_depth_peak": registry.gauge("engine.queue_depth_peak").read(),
        "queue_depth_mean": registry.gauge("engine.queue_depth_mean").read(),
        "signal_waits": counters["engine.signal_waits"],
        "signal_cancels": counters["engine.signal_cancels"],
        "signal_fires": counters["engine.signal_fires"],
    }

    best = stats["best"] or 1e-12
    cell: Dict[str, Any] = {
        "lock": spec.lock,
        "model": spec.model,
        "threads": spec.threads,
        "write_pct": spec.write_pct,
        "iters": spec.iters,
        "seed": spec.seed,
        "repeats": repeats,
        "host_seconds": [round(t, 6) for t in timings],
        "host_seconds_best": round(stats["best"], 6),
        "host_seconds_mean": round(stats["mean"], 6),
        "host_seconds_stdev": round(stats["stdev"], 6),
        "host_rel_spread": round(stats["rel_spread"], 4),
        "simulated_cycles": result.elapsed,
        "total_cs": result.total_cs,
        "cycles_per_cs": round(result.cycles_per_cs, 3),
        "cycles_per_host_sec": round(result.elapsed / best, 1),
        "events_per_host_sec": round(
            engine["events_processed"] / best, 1
        ),
        "instrumented_host_seconds": round(instr_ns / 1e9, 6),
        "engine": engine,
    }

    if profiler is not None:
        cell["profile"] = _profile_digest(
            profiler, result, instr, stats["best"], instr_ns / 1e9
        )
    if embed_report:
        cell["report"] = build_run_report(
            "microbench",
            {
                "lock": spec.lock, "model": spec.model,
                "threads": spec.threads, "write_pct": spec.write_pct,
                "iters_per_thread": spec.iters,
                "sample_interval": sample_interval,
                "machine": dataclasses.asdict(_config(spec.model)),
            },
            dataclasses.asdict(instr),
            metrics=registry.to_dict(),
            profile=profiler.to_dict() if profiler is not None else None,
        )
    return cell


def _profile_digest(
    profiler, timed_result, instr_result, best_s: float, instr_s: float
) -> Dict[str, Any]:
    """The BENCH_profile-style digest of one profiled cell: contention
    phase means, profiler host overhead, and the determinism check that
    instrumentation left simulated time untouched."""
    phases: Dict[str, Any] = {}
    prof = profiler.to_dict()
    for _label, d in (prof.get("locks") or {}).items():
        for phase, s in (d.get("phases") or {}).items():
            if isinstance(s, dict) and isinstance(
                s.get("mean"), (int, float)
            ):
                phases[phase] = round(s["mean"], 2)
    overhead_pct = (
        100.0 * (instr_s - best_s) / best_s if best_s > 0 else 0.0
    )
    return {
        "phase_means": phases,
        "host_overhead_pct": round(overhead_pct, 1),
        "simulated_cycles_identical": (
            timed_result.elapsed == instr_result.elapsed
            and timed_result.total_cs == instr_result.total_cs
        ),
    }


def run_bench(
    specs: List[BenchCellSpec],
    repeats: int = DEFAULT_REPEATS,
    profile: bool = False,
    sample_interval: int = 0,
    embed_report: bool = False,
    label: Optional[str] = None,
    note: Optional[str] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run the matrix and build one trajectory record."""
    cells: List[Dict[str, Any]] = []
    for spec in specs:
        cell = run_cell(
            spec, repeats=repeats, profile=profile,
            sample_interval=sample_interval, embed_report=embed_report,
        )
        cells.append(cell)
        if progress is not None:
            progress(cell)
    record: Dict[str, Any] = {
        "env": env_fingerprint(),
        "time_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "cells": cells,
    }
    if label:
        record["label"] = label
    if note:
        record["note"] = note
    return record


def summarize_cell(cell: Dict[str, Any]) -> str:
    """One human-readable bench line per cell."""
    mcyc = cell["cycles_per_host_sec"] / 1e6
    return (
        f"{cell['lock']:7s} model {cell['model']} t={cell['threads']:<3d} "
        f"{cell['host_seconds_best']:7.3f}s best of {cell['repeats']} "
        f"(±{cell['host_seconds_stdev']:.3f})  "
        f"{mcyc:6.3f} Mcyc/s  "
        f"{cell['engine']['events_processed']:>8.0f} events "
        f"(depth peak {cell['engine']['queue_depth_peak']:.0f})"
    )
