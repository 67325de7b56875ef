#!/usr/bin/env python3
"""Host-profiling demo: where does the *simulator's* time go?

Everything else in this repo measures simulated cycles — deterministic,
bit-reproducible, and completely silent about why a run takes three
wall-clock seconds.  This demo turns the observatory on the engine
itself: it runs one contended microbenchmark with
:class:`repro.obs.HostProfiler` attached, charging every host nanosecond
of the event loop to a subsystem (net, lcu, cpu, engine, ...) and to the
individual event handlers, then prints the attribution and writes folded
stacks for a flamegraph.

Three invariants the demo asserts:

* the per-subsystem attribution sums *exactly* to the total attributed
  time (charge intervals tile the profiled run — nothing is lost or
  double-counted);
* attaching the profiler leaves simulated results bit-identical (host
  observation must never perturb simulated time);
* the engine telemetry (heap pushes/pops, queue depth) is identical
  with and without the profiler — those counters are always on.

Typical finding on this codebase: the network hub and the OS scheduler
dominate host cost, which is what ``python -m repro bench`` tracks PR
over PR in BENCH_engine.json.
"""

import argparse
import os
import tempfile

from repro.harness.microbench import run_microbench
from repro.obs import HostProfiler
from repro.params import model_a


def run_once(lock, threads, iters, seed, host=None):
    return run_microbench(
        model_a(), lock, threads, write_pct=100,
        iters_per_thread=iters, seed=seed, host_profiler=host,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lock", default="lcu")
    ap.add_argument("--threads", type=int, default=16)
    ap.add_argument("--iters", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--outdir", default=None,
                    help="keep folded stacks here (default: temp dir)")
    args = ap.parse_args()

    # pass 1: bare run — the reference simulated result
    bare = run_once(args.lock, args.threads, args.iters, args.seed)

    # pass 2: same run, host profiler attached
    host = HostProfiler()
    prof = run_once(args.lock, args.threads, args.iters, args.seed,
                    host=host)

    # host observation must never perturb simulated time
    assert (bare.elapsed, bare.total_cs) == (prof.elapsed, prof.total_cs)
    print(f"simulated result identical with profiler attached: "
          f"{prof.elapsed} cycles, {prof.total_cs} critical sections")

    d = host.to_dict()
    total = d["total_ns"]
    assert sum(d["subsystems"].values()) == total  # exact tiling
    print(f"\nhost time attributed: {total / 1e6:.1f} ms over "
          f"{d['engine']['events_processed']} events "
          f"(queue depth peak {d['engine']['queue_depth_peak']})")

    print("\nper-subsystem attribution:")
    for sub, ns in sorted(d["subsystems"].items(),
                          key=lambda kv: -kv[1]):
        if ns:
            print(f"  {sub:8s} {ns / 1e6:8.2f} ms  "
                  f"{100.0 * ns / total:5.1f}%  "
                  f"|{'#' * int(40 * ns / total)}")

    print("\ncostliest event handlers:")
    handlers = sorted(d["handlers"].items(), key=lambda kv: -kv[1]["ns"])
    for qualname, h in handlers[:5]:
        print(f"  {h['ns'] / 1e6:8.2f} ms  {h['events']:>7d} events  "
              f"[{h['subsystem']}] {qualname}")

    outdir = args.outdir or tempfile.mkdtemp(prefix="repro-hostprof-")
    os.makedirs(outdir, exist_ok=True)
    folded = os.path.join(outdir, "host.folded")
    host.write_folded(folded)
    print(f"\nfolded stacks -> {folded} "
          f"(feed to flamegraph.pl or speedscope)")
    print("\nnext: 'python -m repro bench --quick' records this "
          "attribution plus best-of-N throughput in BENCH_engine.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
