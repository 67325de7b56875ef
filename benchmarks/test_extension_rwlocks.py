"""Extension bench: reader-writer lock shootout across read ratios.

Compares the paper's MRSW baseline, the SNZI-based lock of Lev et al.
(paper reference [24]) and the LCU across reader proportions — the
design space the paper's related-work section walks through:

* MRSW: one shared reader counter — degrades as readers grow;
* SNZI: per-chip leaf counters decongest arrivals at the price of more
  memory accesses per operation (its Figure 1 row);
* LCU: hardware queue, direct grants — best of both.
"""

from repro.harness.microbench import run_microbench
from repro.params import model_b


def test_rwlock_reader_scaling():
    WRITE_PCTS = (100, 10, 0)

    out = {}
    for lock in ("mrsw", "snzi", "lcu"):
        series = []
        for write_pct in WRITE_PCTS:
            r = run_microbench(
                model_b(), lock, threads=16, write_pct=write_pct,
                iters_per_thread=60, cs_cycles=200,
            )
            series.append(round(r.cycles_per_cs, 1))
        out[lock] = series
    print(f"\ncycles/CS at write ratio {WRITE_PCTS}:")
    for lock, series in out.items():
        print(f"  {lock:5s}: {series}")

    mrsw, snzi, lcu = out["mrsw"], out["snzi"], out["lcu"]
    # MRSW's reader counter hotspot: pure-read is no cheaper than mutex
    assert mrsw[2] > 0.8 * mrsw[0]
    # SNZI beats MRSW for pure readers (its design goal)...
    assert snzi[2] < mrsw[2]
    # ...but pays for its writer gate when writers are mixed in
    # (every gate toggle forces reader re-arrivals)
    assert snzi[1] > snzi[2]
    # the LCU beats both at every ratio
    assert all(l < min(m, s) for l, m, s in zip(lcu, mrsw, snzi))
