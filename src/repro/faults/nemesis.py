"""The nemesis matrix: fault classes × lock algorithms × machine models.

Each cell runs one seeded workload (via :func:`repro.check.fuzz.run_case`,
so the full invariant monitor, oracle and quiescence audit are active)
under a fault plan containing a single fault class, then classifies the
result.  The acceptance bar is *zero violated cells*: every injected
fault must end in ``recovered`` (full service, invariants intact) or
``degraded`` (correct but impaired — e.g. the ``lcu_fb`` fallback path
engaged).

Everything is derived from one matrix seed, so a report replays
bit-identically — each cell's plan JSON plus its case seed is a complete
reproducer, and failing cells can be handed to ``repro check --replay``
style tooling or shrunk by the fuzzer.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.fuzz import FuzzCase, run_case
from repro.faults.plan import (
    CRASH_CLASSES,
    GRAY_CLASSES,
    LCU_ONLY_CLASSES,
    MESSAGE_CLASSES,
    SCHED_CLASSES,
    generate_plan,
)
from repro.shards import shard_map

#: default algorithm axis: the paper lock, its degradable variant, and
#: the strongest software baselines (queue locks + reader-writer)
DEFAULT_ALGOS: Tuple[str, ...] = (
    "lcu", "lcu_fb", "mcs", "clh", "ticket", "mrsw",
)
DEFAULT_MODELS: Tuple[str, ...] = ("A", "B")
#: classes every algorithm faces; LCU-backed locks additionally face
#: the hardware-pressure classes.  Crash-stop classes are universal:
#: software locks face them under the "idle" victim policy (a core dies
#: between critical sections), LCU-backed locks under the "busy" policy
#: (the crash lands on live hardware lock state and must be revoked by
#: the lease machinery) — see repro.check.fuzz._crash_victim_gate.
#: Gray-failure classes (asymmetric partitions, zombie holders, slow
#: cores) are universal too: any lock's traffic can be partitioned and
#: any core can zombie or crawl; what differs is the recovery story the
#: cell exercises (fenced lease reclaim for LCU-backed locks, plain
#: retransmission-and-wait for software ones).
UNIVERSAL_CLASSES: Tuple[str, ...] = (
    MESSAGE_CLASSES + SCHED_CLASSES + CRASH_CLASSES + GRAY_CLASSES
)
LCU_ALGOS: Tuple[str, ...] = ("lcu", "lcu_fb")


@dataclasses.dataclass
class NemesisCell:
    """One (fault class, algorithm, model) run and its verdict."""

    algo: str
    model: str
    fault: str
    seed: int
    outcome: str               # worst outcome across the cell's faults
    injected: int
    detail: str
    elapsed: int
    total_cs: int
    plan: Dict[str, Any]
    case: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class NemesisResult:
    """Full matrix report (JSON-able, replayable from ``seed``)."""

    seed: int
    cells: List[NemesisCell]

    @property
    def counts(self) -> Dict[str, int]:
        out = {"recovered": 0, "degraded": 0, "violated": 0}
        for cell in self.cells:
            out[cell.outcome] = out.get(cell.outcome, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return all(c.outcome != "violated" for c in self.cells)

    def violated(self) -> List[NemesisCell]:
        return [c for c in self.cells if c.outcome == "violated"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "counts": self.counts,
            "cells": [c.to_dict() for c in self.cells],
        }


def _cell_seed(seed: int, algo: str, model: str, fault: str) -> int:
    """Stable per-cell seed (independent of axis ordering)."""
    return zlib.crc32(f"{seed}:{algo}:{model}:{fault}".encode()) & 0x7FFFFFFF


def classes_for(algo: str, classes: Optional[Sequence[str]]) -> List[str]:
    """The fault-class axis for one algorithm: an explicit list is taken
    as-is except that hardware-pressure classes are skipped for locks
    that never touch the LCU (they would inject nothing)."""
    pool = (
        list(classes) if classes is not None
        else list(UNIVERSAL_CLASSES)
        + (list(LCU_ONLY_CLASSES) if algo in LCU_ALGOS else [])
    )
    if algo not in LCU_ALGOS:
        pool = [c for c in pool if c not in LCU_ONLY_CLASSES]
    return pool


def run_cell(
    algo: str,
    model: str,
    fault: str,
    seed: int,
    threads: int = 6,
    iters: int = 30,
    horizon: int = 12_000,
    fencing: bool = True,
) -> NemesisCell:
    """Run one matrix cell.  Model B message faults and link partitions
    target the scarce inter-chip hub links (the paper's Model B
    bottleneck — a partition there is a hub brownout); Model A is flat,
    so they target the core↔LRT protocol links instead.

    ``fencing=False`` is the sabotage axis: leases are still reclaimed
    but grants carry no enforced fence token, so a zombie holder's
    stale operations succeed silently — the cell is then expected to
    *violate* (the monitor's zombie-writer check firing is the proof
    the fences earn their keep)."""
    cseed = _cell_seed(seed, algo, model, fault)
    links = (
        "inter_chip"
        if model == "B" and fault in MESSAGE_CLASSES + ("partition_links",)
        else "lcu_lrt"
    )
    plan = generate_plan(
        seed=cseed, classes=[fault], horizon=horizon, links=links,
        cores=4,
    )
    case = FuzzCase(
        algo=algo,
        model=model,
        seed=cseed,
        threads=threads,
        locks=2,
        iters=iters,
        write_pct=60,
        cs_cycles=250,
        think_cycles=80,
        yield_pct=10,
        tiebreak_seed=cseed & 0xFFFF,
        faults=plan.to_dict(),
        fencing=fencing,
        note=f"nemesis {fault}/{algo}/{model}",
    )
    outcome = run_case(case)
    worst, detail = "recovered", ""
    for fo in outcome.fault_outcomes or []:
        rank = {"recovered": 0, "degraded": 1, "violated": 2}
        if rank[fo.outcome] > rank[worst]:
            worst, detail = fo.outcome, fo.detail
    injected = sum((outcome.fault_stats or {}).values())
    return NemesisCell(
        algo=algo,
        model=model,
        fault=fault,
        seed=cseed,
        outcome=worst,
        injected=injected,
        detail=detail,
        elapsed=outcome.elapsed,
        total_cs=outcome.total_cs,
        plan=plan.to_dict(),
        case=case.to_dict(),
    )


def _cell_specs(
    algos: Sequence[str],
    models: Sequence[str],
    classes: Optional[Sequence[str]],
    seed: int,
    threads: int,
    iters: int,
    horizon: int,
    fencing: bool,
) -> List[Tuple]:
    """The matrix cells in canonical (spec) order — the order the report
    lists them in regardless of how they are executed."""
    return [
        (algo, model, fault, seed, threads, iters, horizon, fencing)
        for model in models
        for algo in algos
        for fault in classes_for(algo, classes)
    ]


def _cell_shard(spec: Tuple) -> Dict[str, Any]:
    """Run one cell and return it as a plain dict (pool transport must
    not depend on rich-object pickling)."""
    algo, model, fault, seed, threads, iters, horizon, fencing = spec
    return run_cell(
        algo, model, fault, seed,
        threads=threads, iters=iters, horizon=horizon, fencing=fencing,
    ).to_dict()


def run_matrix(
    algos: Sequence[str] = DEFAULT_ALGOS,
    models: Sequence[str] = DEFAULT_MODELS,
    classes: Optional[Sequence[str]] = None,
    seed: int = 0,
    threads: int = 6,
    iters: int = 30,
    horizon: int = 12_000,
    progress=None,
    workers: int = 0,
    fencing: bool = True,
) -> NemesisResult:
    """Run the full nemesis matrix.  Deterministic in its arguments:
    the report dict is bit-identical across runs with the same inputs
    AND any worker count — every cell is an independent simulation
    keyed only by its spec, and results are merged in spec order.

    ``workers >= 2`` fans cells out over a process pool
    (:func:`repro.shards.shard_map`); ``workers <= 1`` runs serially
    in-process.  ``progress`` fires per cell, in spec order."""
    specs = _cell_specs(algos, models, classes, seed, threads, iters,
                        horizon, fencing)
    cells: List[NemesisCell] = []
    for shard in shard_map(_cell_shard, specs, workers):
        cell = NemesisCell(**shard)
        cells.append(cell)
        if progress is not None:
            progress(cell)
    return NemesisResult(seed=seed, cells=cells)
