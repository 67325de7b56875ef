"""Crossover analyses: where workload parameters flip the verdicts.

The paper reports point results; these benches chart the boundaries —
useful for judging when the LCU's hardware cost is worth paying.
"""

from repro.harness.sweeps import cs_length_sweep, contention_sweep
from repro.params import model_a


def test_cs_length_crossover():
    """LCU vs MCS advantage as the critical section grows: the ~2.4x
    transfer advantage must amortize toward parity for long CSs."""
    r = cs_length_sweep(
        model_a, locks=("lcu", "mcs"),
        values=(20, 200, 2_000, 20_000),
        threads=16, iters_per_thread=40,
    )
    ratios = [round(x, 2) for x in r.ratio("mcs", "lcu")]
    print(f"\nmcs/lcu cycles ratio by CS length {r.values}: {ratios}")
    assert ratios[0] > 1.8            # short CS: big LCU win
    assert ratios[-1] < 1.15          # long CS: amortized away
    assert sorted(ratios, reverse=True) == ratios  # monotone decay


def test_contention_collapse_boundary():
    """TATAS vs LCU as contenders grow in Model A: the single-line lock
    must degrade super-linearly while the LCU holds flat."""
    r = contention_sweep(
        model_a, locks=("lcu", "tatas"),
        values=(2, 8, 32), iters_per_thread=50,
    )
    print(f"\ncycles/CS by threads {r.values}:")
    for lock, vals in r.series.items():
        print(f"  {lock:6s}: {[round(v,1) for v in vals]}")
    lcu = r.series["lcu"]
    tatas = r.series["tatas"]
    assert lcu[-1] < 1.5 * lcu[0]
    assert tatas[-1] > 2.0 * tatas[0]
