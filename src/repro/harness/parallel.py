"""Multiprocess sweep runner: shard (cell, seed) microbench runs across
cores, merge the results into one deterministic RunReport.

Nemesis and check matrices are embarrassingly parallel — every
(lock, model, threads, seed) shard is an independent simulation — but
until now the harness ran them serially on one core.  ``repro sweep``
fans the shards out over a ``multiprocessing`` pool and folds the
per-shard telemetry back together through the exact-state merge path
(:meth:`repro.obs.registry.MetricsRegistry.merge_state`, built on
:meth:`repro.sim.stats.Histogram.merge` /
:meth:`repro.sim.stats.Accumulator.merge`).

Determinism contract (pinned by ``tests/test_determinism.py``): the
merged RunReport is **byte-identical** whether the shards ran serially
in-process, or across any number of worker processes.  Three rules make
that hold:

* every shard is fully self-contained (fresh ``Machine``, fresh
  ``MetricsRegistry``, seed passed explicitly) and returns plain data;
* shard payloads are merged in *spec order*, never completion order
  (:func:`repro.shards.shard_map` yields them in spec order on both
  paths);
* the artifact carries nothing volatile — no wall-clock timestamps, no
  worker count, no host identifiers.  Worker count changes wall time,
  never bytes.

Workers use the ``spawn`` start method so child processes import a
clean interpreter (fork would duplicate the parent's loaded simulator
state and is unavailable on some platforms anyway).
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.harness.microbench import run_microbench
from repro.obs.registry import MetricsRegistry
from repro.obs.report import build_run_report
from repro.params import make_model
from repro.shards import shard_map

#: the default sweep matrix: one software lock (mcs), the paper's
#: hardware lock (lcu) and the RW baseline (mrsw) over both machine
#: models at a low and a high thread count.
DEFAULT_LOCKS = ("lcu", "mcs", "mrsw")
DEFAULT_THREADS = (4, 16)
DEFAULT_WRITE_PCT = 100
DEFAULT_ITERS = 150


@dataclasses.dataclass(frozen=True)
class BenchCellSpec:
    """One cell of a sweep matrix."""

    lock: str
    model: str
    threads: int
    write_pct: int = DEFAULT_WRITE_PCT
    iters: int = DEFAULT_ITERS
    seed: int = 1


def default_matrix(
    locks=DEFAULT_LOCKS, models=("A", "B"), threads=DEFAULT_THREADS,
    write_pct=DEFAULT_WRITE_PCT, iters=DEFAULT_ITERS, seed=1,
) -> List[BenchCellSpec]:
    return [
        BenchCellSpec(lock, model, t, write_pct, iters, seed)
        for lock in locks for model in models for t in threads
    ]


def sweep_shards(
    specs: Iterable[BenchCellSpec], seeds: Iterable[int]
) -> List[Tuple[BenchCellSpec, int]]:
    """The shard list: every spec × every seed, in deterministic order
    (specs outer, seeds inner).  This order is the merge order."""
    seeds = list(seeds)
    return [(spec, seed) for spec in specs for seed in seeds]


def _run_shard(shard: Tuple[BenchCellSpec, int],
               fairness: bool = False) -> Dict[str, Any]:
    """Run one (cell, seed) shard in full isolation and return plain
    data: the microbench result fields plus an exact-state registry
    dump.  Module-level (and argument-picklable) so the pool can ship
    it to spawn-started workers.  With ``fairness`` each shard
    attaches a fresh :class:`~repro.obs.fairness.FairnessObservatory`
    and publishes its ledger into the registry — counters add, wait
    histograms bucket-merge and watermark gauges keep their max across
    shards, so the merged report carries sweep-wide fairness data."""
    spec, seed = shard
    registry = MetricsRegistry()
    observatory = None
    if fairness:
        from repro.obs.fairness import FairnessObservatory
        observatory = FairnessObservatory()
    result = run_microbench(
        make_model(spec.model), spec.lock, spec.threads, spec.write_pct,
        iters_per_thread=spec.iters, seed=seed, registry=registry,
        fairness=observatory,
    )
    return {
        "spec": dataclasses.asdict(spec),
        "seed": seed,
        "result": dataclasses.asdict(result),
        "metrics_state": registry.to_state(),
    }


def merge_shards(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold shard payloads (already in spec order) into one RunReport
    dict of kind ``sweep``.  Pure function of the payload list — the
    serial/parallel byte-equality guarantee reduces to "the payloads
    are equal", which holds because each shard is a deterministic
    simulation."""
    merged = MetricsRegistry()
    cells: List[Dict[str, Any]] = []
    total_cs = 0
    elapsed_sum = 0
    for p in payloads:
        merged.merge_state(p["metrics_state"])
        r = p["result"]
        total_cs += r["total_cs"]
        elapsed_sum += r["elapsed"]
        cells.append({
            "spec": p["spec"],
            "seed": p["seed"],
            "result": r,
        })
    return build_run_report(
        kind="sweep",
        config={
            "shards": [
                {"spec": c["spec"], "seed": c["seed"]} for c in cells
            ],
        },
        results={
            "cells": cells,
            "shard_count": len(cells),
            "total_cs": total_cs,
            "elapsed_cycles_sum": elapsed_sum,
        },
        metrics=merged.to_dict(),
    )


def run_sweep(
    specs: Iterable[BenchCellSpec],
    seeds: Iterable[int] = (1,),
    workers: int = 0,
    progress=None,
    fairness: bool = False,
) -> Dict[str, Any]:
    """Run the full sweep and return the merged RunReport dict.

    ``workers <= 1`` runs every shard serially in-process (the reference
    path); ``workers >= 2`` shards across a process pool
    (:func:`repro.shards.shard_map`).  Both paths produce byte-identical
    reports.  ``progress``, if given, is called with each shard payload
    as it is merged (spec order).
    ``fairness`` attaches a fairness observatory to every shard (see
    :func:`_run_shard`); the flag changes telemetry only, never
    simulated cycles, and the byte-identity contract holds for any
    worker count either way.
    """
    shards = sweep_shards(specs, seeds)
    if not shards:
        raise ValueError("sweep needs at least one (cell, seed) shard")
    run_one = functools.partial(_run_shard, fairness=fairness)
    payloads = []
    for p in shard_map(run_one, shards, workers):
        payloads.append(p)
        if progress is not None:
            progress(p)
    return merge_shards(payloads)


def default_workers() -> int:
    """Worker-pool size when the CLI is told to auto-pick: the core
    count, floored at 2 (1 would silently fall back to the serial
    path)."""
    return max(2, os.cpu_count() or 2)
