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
* **One result format.**  The scorecard is a plain RunReport of kind
  ``fairness``: ``config`` holds the matrix parameters and
  ``results.cells`` maps ``"<lock>/<model>"`` to the cell's simulated
  quantities.  Nothing host-derived enters, so two runs of the same
  code write byte-identical reports and ``repro diff`` gates them like
  any other report.  Simulator speed is measured by
  ``python perf/run.py``, not here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.harness.microbench import run_microbench
from repro.obs.fairness import FairnessObservatory
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
DEFAULT_STARVATION_BOUND = 100_000

#: --quick keeps the full lock x model coverage (the scorecard is the
#: point) but shrinks each cell: fewer threads, shorter duration.
QUICK_THREADS = 8
QUICK_DURATION = 40_000


def scorecard_config(
    locks=DEFAULT_LOCKS,
    models=DEFAULT_MODELS,
    threads: int = DEFAULT_THREADS,
    write_pct: int = DEFAULT_WRITE_PCT,
    duration: int = DEFAULT_DURATION,
    seed: int = DEFAULT_SEED,
    slo: Optional[int] = None,
    starvation_bound: int = DEFAULT_STARVATION_BOUND,
) -> Dict[str, Any]:
    """The ``config`` of one scorecard run: the lock x model matrix and
    the parameters every cell shares."""
    return {
        "locks": list(locks), "models": list(models), "threads": threads,
        "write_pct": write_pct, "duration": duration, "seed": seed,
        "slo": slo, "starvation_bound": starvation_bound,
    }


def run_fairness_cell(
    config: Dict[str, Any], lock: str, model: str,
) -> Dict[str, Any]:
    """Run one scorecard cell: an uninstrumented reference pass, then
    the identical configuration with the fairness observatory attached.
    Returns the cell's simulated quantities."""
    kwargs = dict(
        mode="duration", duration=config["duration"],
        write_pct=config["write_pct"], fixed_roles=True,
        iters_per_thread=0, seed=config["seed"],
    )
    ref = run_microbench(
        make_model(model), lock, config["threads"], **kwargs,
    )
    observatory = FairnessObservatory(
        slo=config["slo"], starvation_bound=config["starvation_bound"],
    )
    instr = run_microbench(
        make_model(model), lock, config["threads"],
        registry=MetricsRegistry(), fairness=observatory, **kwargs,
    )
    locks = observatory.to_dict()["locks"]
    if len(locks) != 1:
        raise RuntimeError(
            f"microbench cell observed {len(locks)} locks, expected 1"
        )
    summary = next(iter(locks.values()))

    wait = summary["wait"]
    p999 = max(
        wait["read"]["p999"] if wait["read"]["count"] else 0.0,
        wait["write"]["p999"] if wait["write"]["count"] else 0.0,
    )
    cell: Dict[str, Any] = {
        "simulated_cycles": ref.elapsed,
        "total_cs": ref.total_cs,
        "cycles_per_cs": round(ref.cycles_per_cs, 3),
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
    return cell


def run_fairness_bench(
    config: Dict[str, Any],
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run the scorecard matrix of ``config``; returns the cells keyed
    ``"<lock>/<model>"`` (the report's ``results.cells``)."""
    cells: Dict[str, Dict[str, Any]] = {}
    for lock in config["locks"]:
        for model in config["models"]:
            key = f"{lock}/{model}"
            cells[key] = run_fairness_cell(config, lock, model)
            if progress is not None:
                progress(key, cells[key])
    return cells


def scorecard_table(report: Dict[str, Any]) -> str:
    """Render the paper-style fairness scorecard of a ``fairness``
    RunReport: one row per lock x model, the four headline quantities
    per cell."""
    threads = report["config"]["threads"]
    header = (
        f"{'lock':8s} {'model':5s} {'thr':>3s} {'grants':>7s} "
        f"{'jain':>6s} {'max-ot':>6s} {'w-share':>7s} {'p999':>8s} "
        f"{'starve':>6s}"
    )
    rows = [header, "-" * len(header)]
    for key, cell in report["results"]["cells"].items():
        lock, model = key.split("/")
        starve = (str(cell["starvation_alerts"])
                  if cell["starvation_alerts"] else "-")
        rows.append(
            f"{lock:8s} {model:5s} "
            f"{threads:>3d} {cell['total_cs']:>7d} "
            f"{cell['jain']:>6.3f} {cell['max_overtake']:>6d} "
            f"{cell['writer_share']:>7.3f} {cell['wait_p999']:>8.0f} "
            f"{starve:>6s}"
        )
    return "\n".join(rows)
