"""Fairness scorecard (``python -m repro fairness``).

This module measures the locks' *fairness*: a pinned matrix of duration-mode
microbench cells (lock x machine model) runs with the
:class:`repro.obs.fairness.FairnessObservatory` attached, and each cell
reports the paper-style fairness quantities — Jain index over
per-thread grants, the worst arrival-order overtake, the writer share
of grants under a fixed writer-minority role split, and the p999 wait
time — plus starvation-watchdog alerts and (optionally) SLO
time-in-violation.

Methodology notes:

* **Writer-minority roles.**  Cells run ``fixed_roles`` with a 20%
  writer share by default: the first ``round(threads * 0.2)`` threads
  are permanent writers.  This is the configuration where unfair
  reader-preferring locks (the SSB baseline) visibly starve writers
  while queue-fair locks (LCU, ticket) hold the writer share near the
  offered load — the paper's Section IV-A starvation argument.
* **Duration mode.**  Fairness is a rate question, not a fixed-work
  question: every cell runs the same simulated duration and counts
  per-thread grants, so a starved role shows up as a depressed share
  instead of just a longer runtime.
* **The observatory is passive.**  Each cell first runs
  *uninstrumented*, then re-runs the identical configuration with the
  observatory (and a metrics registry) attached; the cell records
  whether simulated cycles and total critical sections were
  bit-identical (``zero_overhead``) — the zero-cost contract, asserted
  by tests and the CI gate.
* **Trajectory records.**  Cells carry the ``repro.bench-trajectory``
  required fields (host throughput, engine counters) so
  ``BENCH_fairness.json`` validates against that schema and
  ``repro report`` can summarize it.  Simulator speed itself is
  measured by ``python perf/run.py``, not here.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.microbench import run_microbench
from repro.obs.fairness import FairnessObservatory
from repro.obs.host import env_fingerprint
from repro.obs.registry import MetricsRegistry
from repro.params import make_model

#: the pinned scorecard matrix — the paper's proposal (lcu), its
#: degradable deployment (lcu_fb), the unfair hardware baseline (ssb),
#: two fair software queues (mcs, ticket), the RW software baseline
#: (mrsw) and the unfair spinning baseline (tatas).
DEFAULT_LOCKS = ("lcu", "lcu_fb", "ssb", "mcs", "ticket", "mrsw", "tatas")
DEFAULT_MODELS = ("A", "B")
DEFAULT_THREADS = 12
DEFAULT_WRITE_PCT = 20
DEFAULT_DURATION = 120_000
DEFAULT_SEED = 1

#: --quick keeps the full lock x model coverage (the scorecard is the
#: point) but shrinks each cell: fewer threads, shorter duration.
QUICK_THREADS = 8
QUICK_DURATION = 40_000


def scorecard_matrix(
    locks=DEFAULT_LOCKS,
    models=DEFAULT_MODELS,
    threads: int = DEFAULT_THREADS,
    write_pct: int = DEFAULT_WRITE_PCT,
    duration: int = DEFAULT_DURATION,
    seed: int = DEFAULT_SEED,
) -> List[Dict[str, Any]]:
    """The cell specs of one scorecard run (plain dicts; one per
    lock x model)."""
    return [
        {
            "lock": lock, "model": model, "threads": threads,
            "write_pct": write_pct, "duration": duration, "seed": seed,
        }
        for lock in locks for model in models
    ]


def quick_matrix(
    locks=DEFAULT_LOCKS, models=DEFAULT_MODELS,
    write_pct: int = DEFAULT_WRITE_PCT, seed: int = DEFAULT_SEED,
) -> List[Dict[str, Any]]:
    return scorecard_matrix(
        locks=locks, models=models, threads=QUICK_THREADS,
        write_pct=write_pct, duration=QUICK_DURATION, seed=seed,
    )


def run_fairness_cell(
    spec: Dict[str, Any],
    slo: Optional[int] = None,
    starvation_bound: int = 100_000,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one scorecard cell: an uninstrumented reference pass, then
    the identical configuration with the fairness observatory attached.

    Returns ``(cell, fairness_section)`` — the JSON-safe trajectory
    cell and the full RunReport ``fairness`` section of the
    instrumented pass.
    """
    kwargs = dict(
        mode="duration", duration=spec["duration"],
        write_pct=spec["write_pct"], fixed_roles=True,
        iters_per_thread=0, seed=spec["seed"],
    )
    t0 = time.perf_counter()
    ref = run_microbench(
        make_model(spec["model"]), spec["lock"], spec["threads"], **kwargs,
    )
    host_s = time.perf_counter() - t0

    registry = MetricsRegistry()
    observatory = FairnessObservatory(
        slo=slo, starvation_bound=starvation_bound,
    )
    instr = run_microbench(
        make_model(spec["model"]), spec["lock"], spec["threads"],
        registry=registry, fairness=observatory, **kwargs,
    )
    section = observatory.to_dict()
    locks = section["locks"]
    if len(locks) != 1:
        raise RuntimeError(
            f"microbench cell observed {len(locks)} locks, expected 1"
        )
    summary = next(iter(locks.values()))

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

    wait = summary["wait"]
    p999 = max(
        wait["read"]["p999"] if wait["read"]["count"] else 0.0,
        wait["write"]["p999"] if wait["write"]["count"] else 0.0,
    )
    best = host_s or 1e-12
    cell: Dict[str, Any] = {
        "lock": spec["lock"],
        "model": spec["model"],
        "threads": spec["threads"],
        "write_pct": spec["write_pct"],
        "duration": spec["duration"],
        "seed": spec["seed"],
        "host_seconds": round(host_s, 6),
        "simulated_cycles": ref.elapsed,
        "total_cs": ref.total_cs,
        "cycles_per_cs": round(ref.cycles_per_cs, 3),
        "cycles_per_host_sec": round(ref.elapsed / best, 1),
        "engine": engine,
        # the scorecard quantities
        "jain": round(summary["jain"], 4),
        "max_overtake": summary["overtakes"]["max"],
        "overtakes_total": summary["overtakes"]["total"],
        "writer_share": round(summary["writer_share"], 4),
        "wait_p999": round(p999, 1),
        "starvation_alerts": summary["starvation"]["alerts"],
        # the zero-cost contract, checked per cell
        "zero_overhead": (
            ref.elapsed == instr.elapsed and ref.total_cs == instr.total_cs
        ),
    }
    slo_d = summary.get("slo")
    if slo_d and slo_d.get("target") is not None:
        cell["slo_time_in_violation"] = slo_d["time_in_violation"]
        cell["slo_violations"] = slo_d["violations"]
    return cell, section


def run_fairness_bench(
    specs: List[Dict[str, Any]],
    slo: Optional[int] = None,
    starvation_bound: int = 100_000,
    label: Optional[str] = None,
    note: Optional[str] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Run the scorecard matrix and build one trajectory record.

    Returns ``(record, sections)`` — the ``BENCH_fairness.json``
    record and the per-cell RunReport fairness sections (same order as
    ``record["cells"]``)."""
    cells: List[Dict[str, Any]] = []
    sections: List[Dict[str, Any]] = []
    for spec in specs:
        cell, section = run_fairness_cell(
            spec, slo=slo, starvation_bound=starvation_bound,
        )
        cells.append(cell)
        sections.append(section)
        if progress is not None:
            progress(cell)
    record: Dict[str, Any] = {
        "env": env_fingerprint(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cells": cells,
    }
    if label:
        record["label"] = label
    if note:
        record["note"] = note
    return record, sections


def scorecard_table(cells: List[Dict[str, Any]]) -> str:
    """Render the paper-style fairness scorecard: one row per
    lock x model, the four headline quantities per cell."""
    header = (
        f"{'lock':8s} {'model':5s} {'thr':>3s} {'grants':>7s} "
        f"{'jain':>6s} {'max-ot':>6s} {'w-share':>7s} {'p999':>8s} "
        f"{'starve':>6s}"
    )
    rows = [header, "-" * len(header)]
    for cell in cells:
        starve = (str(cell["starvation_alerts"])
                  if cell["starvation_alerts"] else "-")
        rows.append(
            f"{cell['lock']:8s} {cell['model']:5s} "
            f"{cell['threads']:>3d} {cell['total_cs']:>7d} "
            f"{cell['jain']:>6.3f} {cell['max_overtake']:>6d} "
            f"{cell['writer_share']:>7.3f} {cell['wait_p999']:>8.0f} "
            f"{starve:>6s}"
        )
    return "\n".join(rows)
