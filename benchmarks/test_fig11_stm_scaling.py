"""Figure 11: STM scalability — RB-tree, 2^8 nodes, 75% read-only.

Expected shapes (paper Section IV-B):
* sw-only's commit phase (lock acquisition) grows with the thread count
  — reader congestion at the tree root;
* the LCU stays nearly flat, approaching the (privatization-unsafe)
  Fraser nonblocking system at high thread counts, and beats the SSB;
* single-threaded, the LCU improves sw-only by a modest margin (the
  paper reports 10.8%).
"""

from conftest import assert_checks, emit

from repro.harness.figures import figure11


def test_fig11a_model_a():
    r = figure11(model="A", thread_counts=(1, 2, 4, 8, 16),
                 txns_per_thread=40)
    emit(r)
    assert_checks(r)
    # at 16 threads the LCU approaches Fraser (within 2x) and beats SSB
    assert r.series["lcu"][-1] < 2.0 * r.series["fraser"][-1]
    assert r.series["lcu"][-1] < r.series["ssb"][-1]
    # the boost over sw-only at high thread counts is large (paper: ~3x)
    assert r.series["sw-only"][-1] / r.series["lcu"][-1] > 2.0


def test_fig11b_model_b():
    r = figure11(model="B", thread_counts=(1, 4, 8, 16),
                 txns_per_thread=30)
    emit(r)
    assert_checks(r)
    # the multi-CMP model makes sw-only even worse past one chip
    assert r.series["sw-only"][-1] / r.series["lcu"][-1] > 2.0
