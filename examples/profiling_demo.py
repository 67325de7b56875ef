#!/usr/bin/env python3
"""Contention-profiling demo: where does lock-acquire time actually go?

Runs the same contended microbenchmark twice — once with the LCU
hardware lock, once with a software queue lock — profiles both with
:class:`repro.obs.ContentionProfiler`, prints the per-phase wait
decomposition side by side, and finishes with a perf-regression diff:
the software lock's run report is diffed against the LCU's with
``repro.obs.diff.diff_run_reports``, the same machinery behind
``python -m repro diff``.

The phase model (see DESIGN.md "Profiling"):

    enqueue -> queue_wait -> transfer -> handoff -> critical_section

The four acquire phases always sum to exactly the end-to-end acquire
latency the harness measures; the demo asserts that invariant.
"""

import argparse
import os
import tempfile

from repro.harness.microbench import run_microbench
from repro.obs import ContentionProfiler
from repro.obs.diff import diff_run_reports
from repro.obs.profile import ACQUIRE_PHASES
from repro.obs.report import build_run_report
from repro.params import model_a


def profile_one(lock: str, threads: int, iters: int, seed: int):
    prof = ContentionProfiler()
    result = run_microbench(
        model_a(), lock, threads, write_pct=100,
        iters_per_thread=iters, seed=seed, profiler=prof,
    )
    return prof, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threads", type=int, default=16)
    ap.add_argument("--iters", type=int, default=60)
    ap.add_argument("--baseline", default="lcu")
    ap.add_argument("--contender", default="mcs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--outdir", default=None,
                    help="keep folded stacks here (default: temp dir)")
    args = ap.parse_args()

    outdir = args.outdir or tempfile.mkdtemp(prefix="repro-profile-")
    os.makedirs(outdir, exist_ok=True)

    reports = {}
    for lock in (args.baseline, args.contender):
        prof, result = profile_one(lock, args.threads, args.iters,
                                   args.seed)
        d = prof.to_dict()
        (ld,) = d["locks"].values()

        # the phase-sum invariant the profiler guarantees by construction
        phase_sum = sum(ld["phases"][p]["total"] for p in ACQUIRE_PHASES)
        assert phase_sum == ld["acquire_latency_total"]

        print(prof.summarize(top=3))
        folded = os.path.join(outdir, f"{lock}.folded")
        prof.write_folded(folded)
        print(f"\nfolded stacks -> {folded} "
              f"(feed to flamegraph.pl or speedscope)")
        print("=" * 72)
        reports[lock] = build_run_report(
            "microbench",
            {"lock": lock, "threads": args.threads, "iters": args.iters},
            {"cycles_per_cs": result.cycles_per_cs,
             "acquire_latency_mean": result.acquire_latency_mean,
             "total_cs": result.total_cs},
            profile=d,
        )

    print(f"\nregression view: {args.contender} vs {args.baseline} "
          f"baseline")
    diff = diff_run_reports(reports[args.baseline],
                            reports[args.contender], threshold=0.10)
    print(diff.summarize(top=8))
    print(f"\nprofiling demo OK: 2 locks profiled, "
          f"{len(diff.entries)} quantities diffed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
