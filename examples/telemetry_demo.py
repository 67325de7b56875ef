#!/usr/bin/env python3
"""End-to-end telemetry demo: run a benchmark through the CLI plumbing
with ``--metrics-out`` / ``--trace-out``, then validate and summarize
both artifacts.

The metrics file is a versioned RunReport (see README "Observability");
the trace file is Chrome trace-event JSON — drag it into
https://ui.perfetto.dev to see per-thread lock spans and per-link
message flights on the simulated cycle clock.
"""

import argparse
import json
import os
import tempfile

from repro.__main__ import main as repro_main
from repro.obs import validate_chrome_trace
from repro.obs.report import load_run_report, summarize_run_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lock", default="lcu")
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--iters", type=int, default=40)
    ap.add_argument("--sample-interval", type=int, default=1000)
    ap.add_argument("--outdir", default=None,
                    help="keep artifacts here (default: temp dir)")
    args = ap.parse_args()

    outdir = args.outdir or tempfile.mkdtemp(prefix="repro-telemetry-")
    os.makedirs(outdir, exist_ok=True)
    metrics_path = os.path.join(outdir, "metrics.json")
    trace_path = os.path.join(outdir, "trace.json")

    rc = repro_main([
        "microbench", "--lock", args.lock,
        "--threads", str(args.threads), "--iters", str(args.iters),
        "--metrics-out", metrics_path, "--trace-out", trace_path,
        "--sample-interval", str(args.sample_interval),
    ])
    if rc != 0:
        return rc

    report = load_run_report(metrics_path)          # validates the schema
    with open(trace_path) as f:
        trace = json.load(f)
    validate_chrome_trace(trace)

    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    print()
    print(summarize_run_report(report))
    print()
    print(f"artifacts OK: {metrics_path} "
          f"({len(report['metrics']['counters'])} counters), "
          f"{trace_path} ({len(spans)} spans)")
    print("open the trace at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
