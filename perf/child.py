"""One benchmark pass: run every cell of one workload in this process.

``run.py`` starts one child per pass and reads the single JSON line it
prints.  The child is single-threaded.  Its set-up time runs from the
parent's launch timestamp (``--launched-at``, ``time.monotonic()``, a
system-wide clock) to the moment the first cell is ready: interpreter
start, imports, the cell list and one ``Machine`` per model.

Right before each cell the child times ``calibrate()``, a fixed loop of
plain Python that touches no simulator code.  The host this runs on
changes speed by up to 2x for seconds at a time (other tenants share its
cores); the loop slows down with it, so ``run.py`` can express cell
times in units of the loop.

Usage (normally started by ``run.py``)::

    python perf/child.py --workload lcu_rw --seed 0 [--trace] [--reference]
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

from cells import THREADS, Cell, workload_cells  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro.cpu.machine import Machine  # noqa: E402
from repro.faults.nemesis import run_cell as run_nemesis_cell  # noqa: E402
from repro.harness.microbench import run_microbench  # noqa: E402
from repro.obs import (  # noqa: E402
    ContentionProfiler,
    FairnessObservatory,
    MetricsRegistry,
    SpanTracer,
    env_fingerprint,
)
from repro.params import model_a, model_b  # noqa: E402

#: gauge sampling period of the observed workload's registry (cycles)
SAMPLE_INTERVAL = 2000
#: iterations of the calibration loop (about 1.3 ms on the baseline host)
CALIBRATION_ITERS = 3000

_MODELS = {"A": model_a, "B": model_b}


class _Box:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v

    def bump(self) -> None:
        self.v += 1


def _echo():
    x = 0
    while True:
        x = yield x + 1


def calibrate(iters: int = CALIBRATION_ITERS) -> float:
    """Host seconds for a fixed loop shaped like the simulator's inner
    loop: heap pushes and pops, dict lookups, slotted method calls and
    generator sends."""
    t0 = time.perf_counter()
    heap: List[int] = []
    table: Dict[int, _Box] = {}
    gen = _echo()
    next(gen)
    for i in range(iters):
        heapq.heappush(heap, (i * 7919) % 1009)
        box = table.get(i & 255)
        if box is None:
            box = table[i & 255] = _Box(i)
        box.bump()
        gen.send(i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def simulate(cell: Cell) -> Dict[str, Any]:
    """Run one cell and return its simulated outputs."""
    if cell.fault:
        out = run_nemesis_cell(cell.lock, cell.model, cell.fault, cell.seed)
        return {"cycles": out.elapsed, "cs": out.total_cs,
                "outcome": out.outcome}
    sinks: Dict[str, Any] = {}
    if cell.observed:
        sinks = {
            "registry": MetricsRegistry(),
            "sample_interval": SAMPLE_INTERVAL,
            "tracer": SpanTracer(),
            "profiler": ContentionProfiler(),
            "fairness": FairnessObservatory(),
        }
    r = run_microbench(
        _MODELS[cell.model](), cell.lock, THREADS, cell.write_pct,
        iters_per_thread=cell.iters, seed=cell.seed, **sinks,
    )
    return {"cycles": r.elapsed, "cs": r.total_cs,
            "acquire_p50": r.acquire_latency_p50,
            "acquire_p99": r.acquire_latency_p99}


def _guarded(cell: Cell) -> Dict[str, Any]:
    # a cell that raises is a failed cell, not a failed pass
    try:
        return simulate(cell)
    except Exception as exc:  # noqa: BLE001 - reported per cell
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_pass(
    cells: List[Cell],
    launched_at: float,
    trace: bool = False,
    reference: bool = False,
) -> Dict[str, Any]:
    """Time every cell once.  With ``trace`` every cell runs under the
    layer wrappers; with ``reference`` each observed cell's unobserved
    twin runs afterwards, untimed, for the zero-overhead check."""
    tracer = LayerTracer().install() if trace else None
    try:
        for make in _MODELS.values():
            Machine(make())
        setup_s = time.monotonic() - launched_at
        results = []
        for cell in cells:
            gc.collect()
            cal_s = calibrate()
            t0 = time.perf_counter()
            if tracer is None:
                out = _guarded(cell)
            else:
                out, wall_ns = tracer.run_cell(lambda: _guarded(cell))
                out["wall_ns"] = wall_ns
            out["host_s"] = time.perf_counter() - t0
            out["cal_s"] = cal_s
            out["key"] = cell.key
            results.append(out)
        if reference:
            for cell, out in zip(cells, results):
                if cell.observed:
                    ref = _guarded(dataclasses.replace(cell, observed=False))
                    out["reference"] = [ref.get("cycles"), ref.get("cs")]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "setup_s": setup_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cells": results,
        "layers": tracer.to_dict() if tracer is not None else None,
        "env": env_fingerprint(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--launched-at", type=float, default=_STARTED)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    out = run_pass(workload_cells(args.workload, args.seed),
                   args.launched_at, trace=args.trace,
                   reference=args.reference)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
