"""The repo benchmark: how fast the simulator runs four workloads.

Run every workload and write the results as JSON::

    python perf/run.py --seed 0 --out perf_result.json

Run one workload, or its traced run (per-layer metrics)::

    python perf/run.py --workload lcu_rw --seed 0 --seconds 15 --trace 0
    python perf/run.py --workload lcu_rw --seed 0 --seconds 15 --trace 1

The load comes from one single-threaded child process at a time (see
``child.py``).  A workload is measured in a fixed number of passes
(``PASSES``); each pass runs all of its cells once in a fresh child.  A
cell's host time is its best pass, and the workload's host time is the
sum of those bests, so a burst of host noise costs one sample of one
cell.  The pass count never depends on how fast the passes run: a
faster tree given more samples would get a lower minimum by chance.
So ``--seconds``, which the benchmark command line carries, sets no
sample count; the fixed passes are sized so that a run measures about
15 s on the baseline host.  Each cell is timed next to a
fixed calibration loop, and host time is reported in seconds of a host
on which that loop takes ``CAL_REF_S``; this cancels the shared host's
changes of speed (see ``calibrated_s``).  The traced run adds one pass
with every layer's entry points wrapped (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the benchmark ran, whether or not every cell was correct.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from cells import WORKLOADS, workload_cells  # noqa: E402
from layers import LAYERS, entry_name  # noqa: E402

#: passes per workload: each ``nemesis`` pass takes about 11 s on the
#: baseline host, each other pass about 2 s
PASSES = {"lcu_rw": 6, "swlock_rw": 6, "nemesis": 3, "observed": 6}
#: one workload's run must end within this many seconds, children included
DEADLINE_S = 170.0
GOLDEN_PATH = HERE / "golden.json"
#: the seed ``golden.json`` was generated at
GOLDEN_SEED = 0
RELIABLE_SEND = entry_name(
    "repro.net.reliable", "ReliableLayer", "send"
)
#: reference time of one ``child.calibrate()`` call: about its best time
#: on the host the baseline was measured on
CAL_REF_S = 1.3e-3
#: how far host time is scaled with the calibration loop.  When the
#: host's sibling core is busy the loop slows about 1.9x and the
#: simulator about 1.6x, so full scaling (1.0) over-corrects; 0.85 gave
#: the smallest worst-case spread over 80 runs of lcu_rw and swlock_rw.
CAL_EXPONENT = 0.85

Metrics = Dict[str, Tuple[float, str]]


class BenchError(RuntimeError):
    """The benchmark could not run (a child crashed or timed out)."""


def spawn(
    workload: str, seed: int, deadline: float, trace: bool = False,
    reference: bool = False,
) -> Dict[str, Any]:
    """Run one pass in a fresh child process and return its report."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the next pass")
    cmd += ["--launched-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: pass timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited {proc.returncode}\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden() -> Dict[str, List[int]]:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["cells"]


def _sim(out: Dict[str, Any]) -> List[Any]:
    return [out.get("cycles"), out.get("cs")]


def cell_failures(
    keys: List[str], passes: List[Dict[str, Any]],
    golden: Optional[Dict[str, List[int]]],
) -> List[str]:
    """One message per failed (cell, pass).  Every pass is compared with
    the first; ``golden`` (default seed only) pins the first pass."""
    failures = []
    for p, report in enumerate(passes):
        for i, out in enumerate(report["cells"]):
            why = None
            first = passes[0]["cells"][i]
            if "error" in out:
                why = out["error"]
            elif out.get("outcome") == "violated":
                why = "nemesis outcome violated"
            elif _sim(out) != _sim(first):
                why = f"simulated {_sim(out)} != first pass {_sim(first)}"
            elif golden is not None and keys[i] in golden \
                    and _sim(out) != golden[keys[i]]:
                why = f"simulated {_sim(out)} != golden {golden[keys[i]]}"
            elif "reference" in out and out["reference"] != _sim(out):
                why = (f"observed {_sim(out)} != unobserved "
                       f"{out['reference']}")
            if why is not None:
                failures.append(f"pass {p} {keys[i]}: {why}")
    return failures


def _simulated(passes: List[Dict[str, Any]]) -> Tuple[int, int]:
    """Simulated cycles and critical sections, summed over the cells."""
    first = passes[0]["cells"]
    return (sum(out.get("cycles") or 0 for out in first),
            sum(out.get("cs") or 0 for out in first))


def host_factor(passes: List[Dict[str, Any]]) -> float:
    """``CAL_REF_S`` over the mean per-cell best calibration time, to
    the power ``CAL_EXPONENT``: how much faster than the reference host
    this run's host was.  A slow spell of the host stretches the
    calibration loop too, and multiplying a host time by the factor
    mostly cancels it."""
    n = len(passes[0]["cells"])
    best_c = sum(min(p["cells"][i]["cal_s"] for p in passes)
                 for i in range(n))
    return (CAL_REF_S * n / best_c) ** CAL_EXPONENT


def calibrated_s(passes: List[Dict[str, Any]]) -> float:
    """The workload's host time: the sum of per-cell best times, times
    ``host_factor``.  Each cell and its calibration loop ran back to
    back, and both take their best over the same passes."""
    n = len(passes[0]["cells"])
    best_t = sum(min(p["cells"][i]["host_s"] for p in passes)
                 for i in range(n))
    return best_t * host_factor(passes)


def end_to_end(passes: List[Dict[str, Any]]) -> Metrics:
    _cycles, cs = _simulated(passes)
    return {
        "sim_kcs_per_s": (cs / calibrated_s(passes) / 1e3, "kCS/s"),
        # uncalibrated, the minimum over the launches of one run spread
        # by up to 22% over 10 runs; calibrated, by at most 8%
        "setup_s": (min(p["setup_s"] for p in passes)
                    * host_factor(passes), "s"),
        "peak_rss_mb": (max(p["maxrss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(traced: Dict[str, Any], passes: List[Dict[str, Any]]
              ) -> Metrics:
    """Per-layer metrics from the traced pass, plus the seed-dependent
    whole-run figures that are no end-to-end metric."""
    layers = traced["layers"]
    self_ns, calls = layers["self_ns"], layers["calls"]
    c = layers["counters"]
    cycles, cs = _simulated(passes)
    m: Metrics = {}
    for layer in LAYERS:
        n = calls[layer]
        m[f"{layer}.self_ms"] = (self_ns[layer] / 1e6, "ms")
        m[f"{layer}.calls"] = (n, "count")
        m[f"{layer}.ns_per_call"] = (self_ns[layer] / n if n else 0.0, "ns")
    m["sim.events"] = (c["events"], "count")
    m["sim.ns_per_event"] = (
        self_ns["sim"] / c["events"] if c["events"] else 0.0, "ns")
    m["net.messages"] = (c["messages"], "count")
    m["net.inter_chip_frac"] = (
        c["inter_chip_messages"] / c["messages"] if c["messages"] else 0.0,
        "ratio")
    m["reliable.retransmits"] = (c["retransmits"], "count")
    sends = layers["entry_calls"].get(RELIABLE_SEND, 0)
    m["reliable.wire_per_send"] = (
        c["reliable_wire"] / sends if sends else 0.0, "ratio")
    l1 = c["l1_hits"] + c["l1_misses"]
    m["mem.l1_hit_ratio"] = (c["l1_hits"] / l1 if l1 else 0.0, "ratio")
    m["lcu.retries"] = (c["lcu_retries"], "count")
    m["lrt.reclaims"] = (c["lrt_reclaims"], "count")
    micro = [out for out in traced["cells"] if "acquire_p50" in out]
    for q in ("p50", "p99"):
        m[f"model.acquire_{q}_cycles"] = (
            statistics.median(out[f"acquire_{q}"] for out in micro)
            if micro else 0.0, "cycles")
    hubs = layers["hub_utils"]
    m["model.hub_util"] = (statistics.fmean(hubs) if hubs else 0.0, "ratio")
    host_s = calibrated_s(passes)
    m["trace_overhead"] = (calibrated_s([traced]) / host_s, "ratio")
    m["sim_mcycles_per_s"] = (cycles / host_s / 1e6, "Mcycles/s")
    m["sim_cycles_per_cs"] = (cycles / cs if cs else 0.0, "cycles")
    return m


def run_workload(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Measure one workload: passes, checks and metrics."""
    keys = [c.key for c in workload_cells(workload, seed)]
    deadline = time.monotonic() + DEADLINE_S
    passes = [
        spawn(workload, seed, deadline,
              reference=p == 0 and workload == "observed")
        for p in range(PASSES[workload])
    ]
    checked = list(passes)
    traced = None
    if trace:
        traced = spawn(workload, seed, deadline, trace=True)
        checked.append(traced)
    golden = load_golden() if seed == GOLDEN_SEED else None
    failures = cell_failures(keys, checked, golden)
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "attempted": len(keys) * len(checked),
        "failed": len(failures),
        "failures": failures,
        "env": passes[0]["env"],
        "end_to_end": end_to_end(passes),
        "setup_s": [p["setup_s"] for p in passes],
        "cells": [
            {"key": key, "cycles": out.get("cycles"), "cs": out.get("cs"),
             "host_s": [p["cells"][i]["host_s"] for p in passes],
             "cal_s": [p["cells"][i]["cal_s"] for p in passes]}
            for i, (key, out) in enumerate(zip(keys, passes[0]["cells"]))
        ],
    }
    if traced is not None:
        result["untraced"] = traced["layers"]["missing"]
        result["per_layer"] = per_layer(traced, passes)
    return result


def _print_metrics(title: str, metrics: Metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")


def report(result: Dict[str, Any]) -> None:
    print(f"{result['workload']}: seed {result['seed']}, "
          f"{result['passes']} passes, "
          f"{result['failed']}/{result['attempted']} cell runs failed")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    _print_metrics("  end to end", result["end_to_end"])
    if "per_layer" in result:
        for layer, names in result["untraced"].items():
            print(f"  layer {layer} untraced: {', '.join(names)} not found",
                  file=sys.stderr)
        _print_metrics("  per layer (traced run)", result["per_layer"])


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="Simulator host-throughput benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="accepted for the benchmark command line; the "
                         "passes are fixed (PASSES), about 15 s of work")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: add the traced pass, report per-layer metrics")
    ap.add_argument("--out", help="also write every result to this JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # turn SIGTERM into an exception, on which subprocess.run kills and
    # reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for w in workloads:
            results.append(run_workload(w, args.seed, bool(args.trace)))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name):
            {"value": value, "unit": unit}
        for r in results for name, (value, unit) in r[section].items()
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "workloads": results}, f, indent=1)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
