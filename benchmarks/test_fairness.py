"""Fairness and starvation-freedom measurements (paper's core claim).

The paper's title property: the LCU provides *fair* reader-writer
locking.  These benches quantify it against the unfair baselines via
the fairness observatory (:mod:`repro.obs.fairness`) — the assertions
read the ``fairness`` section of the RunReport the harness emits, the
same artifact ``--fairness`` produces on the CLI:

* Jain fairness index of per-thread acquisition counts over a fixed
  duration (LCU's queueing ~1.0; TAS/TATAS capture-prone).
* Worst single-waiter overtake count: bounded by queue skew for the
  LCU, unbounded for retry-based locks.
* Writer share under a reader flood: the SSB's reader preference
  starves writers; the LCU's queue guarantees them service.
"""

from repro.harness.microbench import run_microbench
from repro.obs import MetricsRegistry
from repro.obs.fairness import FairnessObservatory
from repro.obs.report import build_run_report
from repro.params import model_a, model_b


def _fairness_cell(config, lock, **kw):
    """One observed duration-mode run; returns the RunReport's
    fairness lock summary (the single lock of the microbench)."""
    registry = MetricsRegistry()
    obs = FairnessObservatory()
    r = run_microbench(config, lock, registry=registry, fairness=obs,
                       mode="duration", **kw)
    report = build_run_report(
        "microbench",
        {"lock": lock, "model": r.model, "threads": r.threads,
         "write_pct": r.write_pct},
        {"total_cs": r.total_cs, "fairness": r.fairness},
        metrics=registry.to_dict(),
        fairness=obs.to_dict(),
    )
    locks = report["fairness"]["locks"]
    assert len(locks) == 1
    return next(iter(locks.values())), report


def test_acquisition_fairness_index(benchmark):
    def run():
        out = {}
        for lock in ("lcu", "mcs", "tatas", "ssb"):
            summary, _ = _fairness_cell(
                model_b(), lock, threads=16, write_pct=100,
                duration=150_000,
            )
            out[lock] = round(summary["jain"], 3)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nJain fairness index (1.0 = perfectly fair):", out)
    benchmark.extra_info["jain"] = out
    assert out["lcu"] > 0.95
    assert out["mcs"] > 0.95
    # model B's hierarchical coherence favours same-chip handoffs for
    # coherence-based locks (the paper's "unfair lock transfer between
    # threads in the same chip"); the LCU must beat TATAS
    assert out["lcu"] >= out["tatas"]


def test_overtake_ledger_separates_fair_from_unfair(benchmark):
    """The worst single-waiter overtake count: the LCU's queue bounds
    it near the network-arrival skew; the SSB's retry race does not."""

    def run():
        out = {}
        for lock in ("lcu", "ssb"):
            summary, _ = _fairness_cell(
                model_a(), lock, threads=16, write_pct=25,
                fixed_roles=True, duration=150_000,
                cs_cycles=60, think_cycles=5,
            )
            out[lock] = summary["overtakes"]["max"]
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nworst single-waiter overtake count:", out)
    benchmark.extra_info["max_overtake"] = out
    assert out["ssb"] > 4 * max(out["lcu"], 1)


def test_writer_starvation_under_reader_flood(benchmark):
    """4 writers vs 12 readers, continuous load: the writers' share of
    grants, read from the observatory (which also proves the p999
    writer wait blows up on the unfair lock)."""

    def run():
        out = {}
        for lock in ("lcu", "ssb"):
            summary, report = _fairness_cell(
                model_a(), lock, threads=16, write_pct=25,
                fixed_roles=True, duration=200_000,
                cs_cycles=60, think_cycles=5,
            )
            out[lock] = {
                "writer_share": summary["writer_share"],
                "write_p999": summary["wait"]["write"]["p999"],
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nwriter share / p999 write wait (4 writers / 12 readers):",
          out)
    benchmark.extra_info["writer_share"] = {
        k: v["writer_share"] for k, v in out.items()
    }
    # queue fairness guarantees writers a real share; reader preference
    # (SSB) suppresses them
    assert out["lcu"]["writer_share"] > 1.5 * out["ssb"]["writer_share"]
    assert out["lcu"]["writer_share"] > 0.10
    # and the starved writers' tail wait shows it
    assert out["ssb"]["write_p999"] > out["lcu"]["write_p999"]
