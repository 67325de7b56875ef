"""Ablation: the Free Lock Table (paper Section IV-C, future work).

The paper identifies Radiosity's thread-private queue locks as the case
where the base LCU loses to software locks (no "implicit biasing"), and
sketches the FLT as the fix.  This bench quantifies it:

* base LCU: slower than pthread on Radiosity;
* LCU + FLT: re-acquisitions are free (zero messages), restoring the
  bias and closing the gap;
* the FLT must not hurt the contended Fluidanimate case.
"""

from repro.apps import run_app
from repro.params import model_a


def _radiosity(flt_entries, lock="lcu"):
    return run_app(
        model_a(flt_entries=flt_entries), "radiosity", lock,
        threads=16, seeds=(1, 2, 3),
    ).elapsed_mean


def test_flt_restores_radiosity_bias():
    results = {
        "pthread": run_app(model_a(), "radiosity", "pthread",
                           threads=16, seeds=(1, 2, 3)).elapsed_mean,
        "lcu": _radiosity(0),
        "lcu+flt": _radiosity(8),
    }
    print()
    for k, v in results.items():
        print(f"radiosity {k:8s}: {v:9.0f} cycles")
    assert results["lcu"] > results["pthread"]          # the problem
    assert results["lcu+flt"] < 0.85 * results["lcu"]   # the fix
    assert results["lcu+flt"] < 1.10 * results["pthread"]


def test_flt_harmless_under_contention():
    base = run_app(model_a(), "fluidanimate", "lcu",
                   threads=32, seeds=(1, 2)).elapsed_mean
    flt = run_app(model_a(flt_entries=8), "fluidanimate", "lcu",
                  threads=32, seeds=(1, 2)).elapsed_mean
    print(f"\nfluidanimate lcu: {base:.0f}, lcu+flt: {flt:.0f}")
    # shared locks: the FLT may add a small retrieval penalty, but must
    # not degrade the contended case materially
    assert flt < 1.25 * base
