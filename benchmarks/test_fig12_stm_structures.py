"""Figure 12: STM transaction time at 16 threads, larger structures.

Expected shapes (paper Section IV-B): at 16 threads and 75% read-only
transactions the LCU speeds up the lock-based STM by ~1.5-3.4x on the
RB-tree and skip list (root reader congestion removed) and by >=1.4x on
the hash table (no single entry point — the gain is pure lock-handling
speed).  Paper sizes 2^15/2^19 are scaled to 2^11/2^13 by default; pass
bigger sizes via figure12(sizes=...) for paper scale (EXPERIMENTS.md).
"""

from conftest import assert_checks, emit

from repro.harness.figures import figure12


def test_fig12a_model_a(benchmark):
    r = benchmark.pedantic(
        figure12,
        kwargs=dict(model="A", threads=16,
                    sizes={"rb": 2_048, "skip": 2_048, "hash": 8_192},
                    txns_per_thread=30),
        rounds=1, iterations=1,
    )
    emit(r)
    assert_checks(r)
    speedups = {
        s: sw / l for s, sw, l in zip(
            r.xs, r.series["sw-only"], r.series["lcu"]
        )
    }
    print("LCU speedup over sw-only:", speedups)
    benchmark.extra_info["lcu_speedup"] = speedups
    assert speedups["rb"] > 1.4
    assert speedups["skip"] > 1.4
    assert speedups["hash"] > 1.2


def test_fig12b_model_b(benchmark):
    r = benchmark.pedantic(
        figure12,
        kwargs=dict(model="B", threads=16,
                    sizes={"rb": 1_024, "skip": 1_024, "hash": 4_096},
                    txns_per_thread=25),
        rounds=1, iterations=1,
    )
    emit(r)
    assert_checks(r)
    speedups = [
        sw / l for sw, l in zip(r.series["sw-only"], r.series["lcu"])
    ]
    assert min(speedups) > 1.2
