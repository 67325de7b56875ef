"""Application workload kernels and their runner (paper Section IV-C).

Each kernel reproduces the *locking pattern* of one Parsec/Splash
application the paper measures — the property Figure 13's result depends
on — with synthetic compute standing in for the physics/maths:

* :mod:`repro.apps.fluidanimate` — fine-grain per-cell locks, neighbour
  updates, boundary contention (lock-intensive, benefits from fast
  transfers).
* :mod:`repro.apps.cholesky` — task-pool factorization whose tasks dwarf
  the locking cost (insensitive to the lock model).
* :mod:`repro.apps.radiosity` — per-thread work queues with rare
  stealing: lock accesses are overwhelmingly thread-private, which favors
  coherence-cached software locks ("implicit biasing").

Kernels are registered by name; :func:`run_app` executes one kernel with
any registered lock algorithm and returns wall cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List

from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS, SimThread
from repro.locks.base import LockAlgorithm, get_algorithm
from repro.obs.instrument import attach_machine_metrics, finish_run
from repro.params import MachineConfig
from repro.sim.stats import Accumulator


@dataclasses.dataclass
class AppResult:
    app: str
    lock: str
    model: str
    threads: int
    elapsed_mean: float
    elapsed_ci95: float
    runs: int

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"{self.app}/{self.lock}: {self.elapsed_mean:.0f} "
            f"± {self.elapsed_ci95:.0f} cycles"
        )


class AppKernel:
    """One application workload: builds shared state, provides workers."""

    name = "abstract"
    default_threads = 16

    def __init__(self, machine: Machine, algo: LockAlgorithm,
                 threads: int, seed: int) -> None:
        self.machine = machine
        self.algo = algo
        self.threads = threads
        self.seed = seed

    def worker(self, thread: SimThread, index: int) -> Generator:
        raise NotImplementedError


_APPS: Dict[str, type] = {}


def register_app(cls):
    _APPS[cls.name] = cls
    return cls


def all_apps() -> Dict[str, type]:
    return dict(_APPS)


def run_app(
    config: MachineConfig,
    app_name: str,
    lock_name: str,
    threads: int = 0,
    seeds: List[int] = (1, 2, 3),
    max_cycles: int = 20_000_000_000,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
    fairness=None,
) -> AppResult:
    """Run one app kernel under one lock model, averaged over seeds.

    ``registry`` accumulates machine counters across every seed;
    ``tracer`` records message spans for the *first* seed only (one
    coherent timeline beats three overlaid ones); ``fairness`` (a
    :class:`repro.obs.fairness.FairnessObservatory`) observes the
    *first* seed only — arrival order is only meaningful within one
    machine, and each seed allocates fresh (colliding) lock
    addresses."""
    try:
        app_cls = _APPS[app_name]
    except KeyError:
        raise KeyError(
            f"unknown app {app_name!r}; known: {sorted(_APPS)}"
        ) from None
    threads = threads or app_cls.default_threads
    acc = Accumulator()
    for run_idx, seed in enumerate(seeds):
        machine = Machine(config)
        algo = get_algorithm(lock_name)(machine)
        app = app_cls(machine, algo, threads, seed)
        os_ = OS(machine)
        if registry is not None:
            attach_machine_metrics(machine, registry, sample_interval)
        run_tracer = tracer if run_idx == 0 else None
        if run_tracer is not None:
            run_tracer.attach(machine)
        run_fairness = fairness if run_idx == 0 else None
        if run_fairness is not None:
            run_fairness.attach_machine(machine)
            run_fairness.attach_algorithm(algo)
            if registry is not None:
                run_fairness.attach_registry(registry)
        for i in range(threads):
            os_.spawn(
                lambda t, i=i: app.worker(t, i), name=f"{app_name}-{i}"
            )
        elapsed = os_.run_all(max_cycles=max_cycles)
        acc.add(elapsed)
        finish_run(machine, registry, run_tracer, fairness=run_fairness)
    return AppResult(
        app=app_name,
        lock=lock_name,
        model=config.name,
        threads=threads,
        elapsed_mean=acc.mean,
        elapsed_ci95=acc.confidence95(),
        runs=acc.n,
    )
