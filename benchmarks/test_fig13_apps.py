"""Figure 13: application execution time (model A).

Expected shapes (paper Section IV-C):
* Fluidanimate (32 threads, fine-grain cell locks): LCU beats the Posix
  mutex (paper: +7.4%) and edges the SSB via direct transfers;
* Cholesky (16 threads, compute-bound tasks): all models within noise;
* Radiosity (16 threads, thread-private queues): software wins —
  coherence gives it "implicit biasing" that the base LCU lacks;
* geometric mean: small net LCU win (paper: +1.98%).
"""

from conftest import assert_checks, emit

from repro.harness.figures import figure13
from repro.harness.reporting import geomean


def test_fig13_applications():
    r = figure13(seeds=(1, 2, 3))
    emit(r)
    assert_checks(r)
    apps = r.xs
    speedup = {
        a: r.series["pthread"][i] / r.series["lcu"][i]
        for i, a in enumerate(apps)
    }
    gm = geomean(speedup.values())
    print(f"LCU geomean speedup vs pthread: {gm:.3f}")
    # fluidanimate: clear LCU win; radiosity: clear software win
    assert speedup["fluidanimate"] > 1.03
    assert speedup["radiosity"] < 0.97
