"""Figure 9: critical-section time, LCU vs SSB, Models A and B.

Expected shapes (paper Section IV-A):
* Model A: LCU outperforms SSB on 100% writes (~30-40% faster transfer);
  both improve as the reader share grows.
* Model B: SSB's remote retries load the inter-chip hub links and its
  CS time blows up with thread count, while the LCU's local spin keeps
  degradation mild past one chip's worth of threads.
"""

from conftest import assert_checks, emit

from repro.harness.figures import figure9

THREADS = (4, 8, 16, 32)


def test_fig9a_model_a():
    r = figure9(model="A", thread_counts=THREADS,
                write_ratios=(100, 75, 50, 25), iters_per_thread=100)
    emit(r)
    assert_checks(r)
    # readers help both systems
    assert r.series["lcu-25%w"][-1] < r.series["lcu-100%w"][-1]
    assert r.series["ssb-25%w"][-1] < r.series["ssb-100%w"][-1]


def test_fig9b_model_b():
    r = figure9(model="B", thread_counts=THREADS,
                write_ratios=(100, 50), iters_per_thread=100)
    emit(r)
    assert_checks(r)
    lcu = r.series["lcu-100%w"]
    ssb = r.series["ssb-100%w"]
    # SSB collapses across chips (remote retries saturate the hub links);
    # the LCU's local spin keeps it far ahead at 32 threads and its own
    # cross-chip degradation stays bounded.
    assert ssb[-1] > 2 * lcu[-1]
    assert ssb[-1] > 3 * ssb[0], (ssb[0], ssb[-1])   # the collapse
    assert lcu[-1] < 3.5 * lcu[0], (lcu[0], lcu[-1])  # the mild dip
