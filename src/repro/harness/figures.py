"""One driver per figure of the paper's evaluation (Section IV).

Each ``figureN`` function runs the experiment at a configurable scale and
returns a :class:`FigureResult` — the raw series plus a rendered text
table shaped like the paper's plot (x-axis rows, one column per system).
The benchmark suite calls these with scaled-down defaults; the
``examples/reproduce_paper.py`` script runs them at closer-to-paper
scale.  EXPERIMENTS.md records the expected shapes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.apps.base import run_app
from repro.harness.microbench import run_microbench
from repro.harness.reporting import (
    geomean,
    render_chart,
    render_series,
    render_table,
)
from repro.harness.stm_bench import run_stm_bench
from repro.params import make_model, model_a


@dataclasses.dataclass
class FigureResult:
    figure: str
    xs: List
    series: Dict[str, List[float]]   # system name -> values at xs
    text: str
    checks: Dict[str, bool] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover
        return self.text


def _trace_once(tracer):
    """Hand the tracer (or profiler) to the first run of a sweep only:
    one coherent Perfetto timeline beats dozens of overlaid ones.
    Returns a callable yielding the wrapped object once, then ``None``."""
    state = {"used": False}

    def take():
        if tracer is None or state["used"]:
            return None
        state["used"] = True
        return tracer

    return take


# --------------------------------------------------------------------- #
# Figure 9: CS time, LCU vs SSB, both models, varying write ratio

def figure9(
    model: str = "A",
    thread_counts: Sequence[int] = (4, 8, 16, 32),
    write_ratios: Sequence[int] = (100, 75, 50, 25),
    locks: Sequence[str] = ("lcu", "ssb"),
    iters_per_thread: int = 150,
    seed: int = 1,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
    profiler=None,
    fairness=None,
) -> FigureResult:
    """CS execution time including lock transfer, LCU vs SSB (Fig 9)."""
    series: Dict[str, List[float]] = {}
    hub_util: Dict[str, float] = {}
    take_tracer = _trace_once(tracer)
    take_profiler = _trace_once(profiler)
    take_fairness = _trace_once(fairness)
    for lock in locks:
        for w in write_ratios:
            key = f"{lock}-{w}%w"
            vals = []
            for t in thread_counts:
                r = run_microbench(
                    make_model(model), lock, t, w,
                    iters_per_thread=iters_per_thread, seed=seed,
                    registry=registry, tracer=take_tracer(),
                    sample_interval=sample_interval,
                    profiler=take_profiler(),
                    fairness=take_fairness(),
                )
                vals.append(r.cycles_per_cs)
                hub_util[key] = r.hub_utilisation
            series[key] = vals
    text = render_series(
        "threads", list(thread_counts), series,
        title=f"Figure 9{'a' if model == 'A' else 'b'}: "
              f"cycles/CS, model {model} (LCU vs SSB)",
    )
    text += "\n\n" + render_chart("threads", list(thread_counts), series)
    checks = {}
    if "lcu-100%w" in series and "ssb-100%w" in series:
        checks["lcu_beats_ssb_mutex"] = all(
            l < s for l, s in zip(series["lcu-100%w"], series["ssb-100%w"])
        )
    return FigureResult(f"fig9{model.lower()}", list(thread_counts),
                        series, text, checks)


# --------------------------------------------------------------------- #
# Figure 10: CS time, LCU vs software locks (incl. oversubscription)

def figure10(
    model: str = "A",
    thread_counts: Sequence[int] = (4, 8, 16, 32, 48),
    write_ratios: Sequence[int] = (100, 75),
    locks: Sequence[str] = ("lcu", "mcs", "mrsw", "tas", "tatas"),
    iters_per_thread: int = 120,
    quantum: int = 50_000,
    seed: int = 1,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
    profiler=None,
    fairness=None,
) -> FigureResult:
    """CS execution time, LCU vs software locks (Fig 10).  Thread counts
    above 32 oversubscribe the cores and expose the queue-lock
    preemption anomaly."""
    cfg_base = make_model(model)
    series: Dict[str, List[float]] = {}
    take_tracer = _trace_once(tracer)
    take_profiler = _trace_once(profiler)
    take_fairness = _trace_once(fairness)
    for lock in locks:
        ratios = write_ratios if lock in ("lcu", "mrsw", "ssb") else (100,)
        for w in ratios:
            key = f"{lock}-{w}%w"
            vals: List[float] = []
            for t in thread_counts:
                if t > cfg_base.cores and lock in ("tas", "tatas"):
                    # Oversubscribed single-line spinlocks burn unbounded
                    # remote-spin time against preemption stalls; the
                    # >cores anomaly under study is the queue-lock one.
                    vals.append(float("nan"))
                    continue
                cfg = make_model(model, timeslice=quantum)
                r = run_microbench(
                    cfg, lock, t, w,
                    iters_per_thread=iters_per_thread, seed=seed,
                    registry=registry, tracer=take_tracer(),
                    sample_interval=sample_interval,
                    profiler=take_profiler(),
                    fairness=take_fairness(),
                )
                vals.append(r.cycles_per_cs)
            series[key] = vals
    text = render_series(
        "threads", list(thread_counts), series,
        title=f"Figure 10{'a' if model == 'A' else 'b'}: "
              f"cycles/CS, model {model} (LCU vs SW locks)",
    )
    text += "\n\n" + render_chart("threads", list(thread_counts), series)
    checks = {}
    if "lcu-100%w" in series and "mcs-100%w" in series:
        within = [t <= cfg_base.cores for t in thread_counts]
        checks["lcu_2x_over_mcs"] = all(
            m >= 1.6 * l
            for l, m, ok in zip(
                series["lcu-100%w"], series["mcs-100%w"], within
            )
            if ok
        )
    if "mrsw-75%w" in series and "lcu-75%w" in series:
        checks["mrsw_reader_counter_hurts"] = (
            series["mrsw-75%w"][-1] > series["lcu-75%w"][-1]
        )
    return FigureResult(f"fig10{model.lower()}", list(thread_counts),
                        series, text, checks)


# --------------------------------------------------------------------- #
# Figure 11: STM scalability + txn dissection (RB-tree, 75% read-only)

def figure11(
    model: str = "A",
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16),
    variants: Sequence[str] = ("sw-only", "lcu", "fraser", "ssb"),
    initial_size: int = 256,
    txns_per_thread: int = 40,
    seed: int = 1,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
) -> FigureResult:
    """Transaction execution time and app/commit dissection for the
    RB-tree benchmark, 2^8 nodes, 75% read-only (Fig 11)."""
    series: Dict[str, List[float]] = {}
    dissect: Dict[str, List[str]] = {}
    take_tracer = _trace_once(tracer)
    for v in variants:
        vals, parts = [], []
        for t in thread_counts:
            r = run_stm_bench(
                make_model(model), v, "rb", threads=t,
                initial_size=initial_size,
                txns_per_thread=txns_per_thread, seed=seed,
                registry=registry, tracer=take_tracer(),
                sample_interval=sample_interval,
            )
            vals.append(r.txn_cycles)
            parts.append(f"{r.app_cycles:.0f}+{r.commit_cycles:.0f}")
        series[v] = vals
        dissect[v] = parts
    rows = [["threads"] + [f"{v} (app+commit)" for v in variants]]
    for i, t in enumerate(thread_counts):
        rows.append(
            [t] + [f"{series[v][i]:.0f} ({dissect[v][i]})" for v in variants]
        )
    text = render_table(
        rows,
        title=f"Figure 11{'a' if model == 'A' else 'b'}: RB-tree txn "
              f"cycles (dissection), model {model}",
    )
    checks = {
        # sw-only degrades with threads; the LCU stays much flatter
        "sw_only_degrades": series["sw-only"][-1] > 1.5 * series["sw-only"][0],
        "lcu_beats_sw_only": series["lcu"][-1] < series["sw-only"][-1],
    }
    return FigureResult(f"fig11{model.lower()}", list(thread_counts),
                        series, text, checks)


# --------------------------------------------------------------------- #
# Figure 12: txn time at 16 threads, larger structures

def figure12(
    model: str = "A",
    threads: int = 16,
    variants: Sequence[str] = ("sw-only", "lcu", "fraser", "ssb"),
    sizes: Optional[Dict[str, int]] = None,
    txns_per_thread: int = 30,
    seed: int = 1,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
) -> FigureResult:
    """Transaction execution time for RB-tree / skip list / hash table at
    16 threads, 75% read-only (Fig 12).  Paper sizes are 2^15 (rb/skip)
    and 2^19 (hash); defaults are scaled down (see EXPERIMENTS.md)."""
    sizes = sizes or {"rb": 2_048, "skip": 2_048, "hash": 8_192}
    structures = list(sizes)
    series: Dict[str, List[float]] = {v: [] for v in variants}
    take_tracer = _trace_once(tracer)
    for structure in structures:
        for v in variants:
            r = run_stm_bench(
                make_model(model), v, structure, threads=threads,
                initial_size=sizes[structure],
                txns_per_thread=txns_per_thread, seed=seed,
                registry=registry, tracer=take_tracer(),
                sample_interval=sample_interval,
            )
            series[v].append(r.txn_cycles)
    text = render_series(
        "structure", structures, series,
        title=f"Figure 12{'a' if model == 'A' else 'b'}: txn cycles, "
              f"{threads} threads, 75% read-only, model {model}",
    )
    text += "\n\n" + render_chart("structure", structures, series)
    speedups = [
        sw / l for sw, l in zip(series["sw-only"], series["lcu"])
    ]
    checks = {
        "lcu_speedup_everywhere": all(s > 1.2 for s in speedups),
    }
    return FigureResult(f"fig12{model.lower()}", structures, series,
                        text, checks)


# --------------------------------------------------------------------- #
# Figure 13: application execution time

def figure13(
    locks: Sequence[str] = ("pthread", "lcu", "ssb"),
    seeds: Sequence[int] = (1, 2, 3),
    flt_entries: int = 0,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
) -> FigureResult:
    """Application execution time, model A: Fluidanimate (32 threads),
    Cholesky (16), Radiosity (16) — pthread vs LCU vs SSB (Fig 13)."""
    apps = [("fluidanimate", 32), ("cholesky", 16), ("radiosity", 16)]
    series: Dict[str, List[float]] = {l: [] for l in locks}
    cis: Dict[str, List[float]] = {l: [] for l in locks}
    take_tracer = _trace_once(tracer)
    for app, threads in apps:
        for lock in locks:
            cfg = model_a(flt_entries=flt_entries)
            r = run_app(cfg, app, lock, threads=threads, seeds=list(seeds),
                        registry=registry, tracer=take_tracer(),
                        sample_interval=sample_interval)
            series[lock].append(r.elapsed_mean)
            cis[lock].append(r.elapsed_ci95)
    rows = [["app"] + [f"{l} (±95%)" for l in locks]]
    for i, (app, _t) in enumerate(apps):
        rows.append(
            [app]
            + [f"{series[l][i]:.0f} (±{cis[l][i]:.0f})" for l in locks]
        )
    gmeans = {
        l: geomean(
            series["pthread"][i] / series[l][i] for i in range(len(apps))
        )
        for l in locks
    }
    rows.append(["geomean speedup vs pthread"]
                + [f"{gmeans[l]:.3f}" for l in locks])
    text = render_table(rows, title="Figure 13: application execution time "
                                    "(model A)")
    checks = {
        "lcu_wins_fluidanimate": series["lcu"][0] < series["pthread"][0],
        "cholesky_within_noise": abs(
            series["lcu"][1] - series["pthread"][1]
        ) < 3 * max(cis["lcu"][1] + cis["pthread"][1], 1.0),
        "radiosity_sw_wins": series["lcu"][2] > series["pthread"][2],
    }
    return FigureResult("fig13", [a for a, _ in apps], series, text, checks)
