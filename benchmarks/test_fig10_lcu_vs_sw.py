"""Figure 10: critical-section time, LCU vs software locks.

Expected shapes (paper Section IV-A):
* LCU beats MCS by >2x on lock transfer (direct grant vs invalidate +
  refetch), in both models.
* MRSW gets *worse* as the reader proportion rises (reader-counter
  coherence hotspot) while the LCU gets better — the paper reports an
  average 9.14x LCU speedup at 75% reads.
* TAS/TATAS suffer contention collapse as threads grow in model A.
* Past 32 threads (more threads than cores) queue-based software locks
  hit the preemption anomaly; the LCU stays smooth thanks to the grant
  timer.
"""

from conftest import assert_checks, emit

from repro.harness.figures import figure10


def test_fig10a_model_a():
    r = figure10(model="A", thread_counts=(8, 16, 32, 48),
                 write_ratios=(100, 25), iters_per_thread=30,
                 quantum=20_000,
                 locks=("lcu", "mcs", "mrsw", "tas", "tatas",
                        "pthread"))
    emit(r)
    assert_checks(r)
    lcu = r.series["lcu-100%w"]
    mcs = r.series["mcs-100%w"]
    # a blocking mutex also avoids the spin-lock anomaly (sleepers free
    # their cores), though it pays futex costs per contended handoff —
    # both "eviction-safe" designs must stay far below MCS at 48 threads
    pthread = r.series["pthread-100%w"]
    assert pthread[-1] < 0.6 * mcs[-1]
    # oversubscription anomaly: MCS at 48 threads falls off a cliff
    # (handoffs stall behind preempted waiters for whole reschedules);
    # the LCU's grant timer skips absent threads and stays far smoother
    assert mcs[-1] > 3.0 * mcs[-2], (mcs[-2], mcs[-1])
    assert mcs[-1] > 3.0 * lcu[-1], (mcs[-1], lcu[-1])
    assert lcu[-1] < 4.0 * lcu[-2], (lcu[-2], lcu[-1])
    # MRSW degrades as readers increase; LCU improves
    assert r.series["mrsw-25%w"][-2] > r.series["mrsw-100%w"][-2] * 0.8
    assert r.series["lcu-25%w"][-2] < r.series["lcu-100%w"][-2]


def test_fig10b_model_b():
    r = figure10(model="B", thread_counts=(4, 8, 16, 32),
                 write_ratios=(100,), iters_per_thread=60,
                 locks=("lcu", "mcs", "mrsw", "tatas"))
    emit(r)
    assert_checks(r)
    # LCU > 2x over MCS holds in the multi-CMP model too
    lcu = r.series["lcu-100%w"]
    mcs = r.series["mcs-100%w"]
    assert all(m > 1.6 * l for l, m in zip(lcu, mcs))
