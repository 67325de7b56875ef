"""Extension bench: TP-MCS vs MCS vs LCU under oversubscription.

He, Scherer & Scott's time-published MCS lock (paper reference [15]) is
the *software* remedy for the queue-lock preemption anomaly the paper's
Figure 10 exposes.  This bench puts all three designs side by side:

* MCS: cheap handoffs, catastrophic past the core count;
* TP-MCS: pays timestamp publishing at all loads, bounds the anomaly by
  skipping stale waiters;
* LCU: hardware grant timer — cheaper than both, anomaly-bounded.
"""

from repro.harness.microbench import run_microbench
from repro.params import model_a


def test_tpmcs_bounds_the_anomaly():
    out = {}
    for lock in ("mcs", "tpmcs", "lcu"):
        series = []
        for t in (16, 32, 48):
            cfg = model_a(timeslice=20_000)
            r = run_microbench(cfg, lock, threads=t, write_pct=100,
                               iters_per_thread=30)
            series.append(round(r.cycles_per_cs, 1))
        out[lock] = series
    print("\ncycles/CS at threads (16, 32, 48):")
    for lock, series in out.items():
        print(f"  {lock:6s}: {series}")

    mcs, tpmcs, lcu = out["mcs"], out["tpmcs"], out["lcu"]
    # TP-MCS pays for its timestamps within the core count...
    assert tpmcs[0] > 1.2 * mcs[0]
    # ...but bounds the anomaly that wrecks plain MCS past it
    assert tpmcs[-1] < 0.8 * mcs[-1]
    # the hardware grant timer beats the software remedy on both counts
    assert lcu[0] < tpmcs[0] and lcu[-1] < tpmcs[-1]
