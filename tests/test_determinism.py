"""Bit-level reproducibility: identical inputs give identical runs.

The whole evaluation methodology rests on deterministic simulation —
every benchmark number must be replayable.  These tests re-run
representative workloads and demand exact equality of finish times and
statistics.
"""

import glob
import json
import os

from repro.apps import run_app
from repro.harness.microbench import run_microbench
from repro.harness.stm_bench import run_stm_bench
from repro.params import model_a, small_test_model

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TestDeterminism:
    def test_microbench_replays_exactly(self):
        kw = dict(threads=7, write_pct=40, iters_per_thread=25, seed=11)
        a = run_microbench(small_test_model(), "lcu", **kw)
        b = run_microbench(small_test_model(), "lcu", **kw)
        assert a.elapsed == b.elapsed
        assert a.per_thread_cs == b.per_thread_cs
        assert a.acquire_latency_mean == b.acquire_latency_mean

    def test_microbench_oversubscribed_replays(self):
        """Preemption + migration paths must be deterministic too."""
        def go():
            cfg = small_test_model(timeslice=2_000)
            return run_microbench(cfg, "mcs", threads=9, write_pct=100,
                                  iters_per_thread=15, seed=3)
        assert go().elapsed == go().elapsed

    def test_stm_replays_exactly(self):
        kw = dict(threads=4, initial_size=64, txns_per_thread=12, seed=5)
        a = run_stm_bench(small_test_model(), "lcu", "rb", **kw)
        b = run_stm_bench(small_test_model(), "lcu", "rb", **kw)
        assert a.elapsed == b.elapsed
        assert a.abort_rate == b.abort_rate

    def test_app_replays_exactly(self):
        a = run_app(small_test_model(), "fluidanimate", "ssb",
                    threads=4, seeds=[2])
        b = run_app(small_test_model(), "fluidanimate", "ssb",
                    threads=4, seeds=[2])
        assert a.elapsed_mean == b.elapsed_mean

    def test_model_a_benchmarks_replay(self):
        kw = dict(threads=16, write_pct=25, iters_per_thread=20)
        a = run_microbench(model_a(), "lcu", **kw)
        b = run_microbench(model_a(), "lcu", **kw)
        assert a.elapsed == b.elapsed

    def test_seed_changes_results(self):
        """The seed must actually steer the randomness."""
        kw = dict(threads=5, write_pct=50, iters_per_thread=25)
        a = run_microbench(small_test_model(), "lcu", seed=1, **kw)
        b = run_microbench(small_test_model(), "lcu", seed=2, **kw)
        assert a.elapsed != b.elapsed


class TestSweepDeterminism:
    """The multiprocess sweep runner must be a pure speedup: worker
    count changes wall time, never one byte of the merged artifact."""

    def _specs(self):
        from repro.harness.parallel import BenchCellSpec
        return [
            BenchCellSpec("lcu", "A", 4, iters=25),
            BenchCellSpec("mcs", "A", 4, iters=25),
        ]

    def test_parallel_sweep_matches_serial_bytes(self):
        from repro.harness.parallel import run_sweep

        serial = run_sweep(self._specs(), seeds=[1, 2], workers=0)
        parallel = run_sweep(self._specs(), seeds=[1, 2], workers=2)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(parallel, sort_keys=True))

    def test_sweep_report_is_valid_and_replayable(self):
        from repro.harness.parallel import run_sweep
        from repro.obs.report import validate_run_report

        a = run_sweep(self._specs(), seeds=[3], workers=0)
        b = run_sweep(self._specs(), seeds=[3], workers=0)
        validate_run_report(a)
        assert a["kind"] == "sweep"
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_shard_order_is_merge_order(self):
        """Shards merge in spec order (specs outer, seeds inner), never
        completion order — the property the byte-equality rests on."""
        from repro.harness.parallel import run_sweep, sweep_shards

        specs = self._specs()
        shards = sweep_shards(specs, [1, 2])
        assert [(s.lock, seed) for s, seed in shards] == [
            ("lcu", 1), ("lcu", 2), ("mcs", 1), ("mcs", 2),
        ]
        report = run_sweep(specs, seeds=[1, 2], workers=0)
        cells = report["results"]["cells"]
        assert [(c["spec"]["lock"], c["seed"]) for c in cells] == [
            ("lcu", 1), ("lcu", 2), ("mcs", 1), ("mcs", 2),
        ]


class TestReproducerReplay:
    """Saved fuzz reproducers must keep replaying bit-identically across
    engine rewrites — they pin the event schedule itself."""

    def test_saved_reproducers_replay_identically(self):
        from repro.check.fuzz import load_case, run_case

        paths = sorted(glob.glob(os.path.join(DATA_DIR, "check_repro_*.json")))
        assert paths, "reproducer corpus missing from tests/data/"
        for path in paths:
            case = load_case(path)
            a = run_case(case)
            b = run_case(case)
            assert a.ok == b.ok, path
            assert a.elapsed == b.elapsed, path
            assert a.total_cs == b.total_cs, path
            assert a.monitor_stats == b.monitor_stats, path
