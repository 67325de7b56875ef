"""Capstone bench: every registered lock on one standard workload.

Quantifies the paper's Figure 1 comparison table: one row per
implemented mechanism, measured on the same Model A microbenchmark
(16 threads / 100% writes, plus 25% writes for the RW-capable locks).
"""

from repro.harness.microbench import run_microbench
from repro.harness.reporting import render_table
from repro.locks import all_algorithms
from repro.params import model_a


def test_all_locks_quantified():
    rows = [["lock", "cyc/CS (mutex)", "cyc/CS (75% read)", "fairness"]]
    data = {}
    for name, cls in sorted(all_algorithms().items()):
        r = run_microbench(model_a(), name, threads=16, write_pct=100,
                           iters_per_thread=60)
        rw = "-"
        if cls.rw_support:
            rr = run_microbench(model_a(), name, threads=16,
                                write_pct=25, iters_per_thread=60)
            rw = f"{rr.cycles_per_cs:.1f}"
        rows.append([name, f"{r.cycles_per_cs:.1f}", rw,
                     f"{r.fairness:.3f}"])
        data[name] = r.cycles_per_cs
    print()
    print(render_table(rows, title="All locks, Model A, 16 threads"))
    # the paper's headline ordering must hold on the common workload
    assert data["lcu"] < data["ssb"] < data["tas"]
    assert data["lcu"] < data["mcs"]
    assert data["lcu"] == min(data.values())
