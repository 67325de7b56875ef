"""Self-test of the benchmark.  Run with::

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from cells import WORKLOADS, nemesis_matrix_seed, workload_cells  # noqa: E402


@pytest.fixture(scope="module")
def passes():
    """Per workload: its first and last cell, untimed and traced."""
    out = {}
    for w in WORKLOADS:
        cells = workload_cells(w, 0)
        pick = [cells[0], cells[-1]]
        out[w] = (child.run_pass(pick, 0.0),
                  child.run_pass(pick, 0.0, trace=True))
    return out


def test_every_entry_point_resolves():
    missing = layers.missing_entry_points()
    assert not missing, f"wrapped entry points not found: {missing}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_child_pass_runs_cells_of_each_workload(passes, workload):
    report = passes[workload][0]
    cells = workload_cells(workload, 0)
    assert [c["key"] for c in report["cells"]] == \
        [cells[0].key, cells[-1].key]
    for cell in report["cells"]:
        assert "error" not in cell
        assert cell["cycles"] > 0 and cell["cs"] > 0 and cell["host_s"] > 0
    assert report["setup_s"] > 0 and report["maxrss_kb"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cells_match_untraced(passes, workload):
    plain, traced = passes[workload]
    for a, b in zip(plain["cells"], traced["cells"]):
        assert "error" not in a
        assert (a["cycles"], a["cs"]) == (b["cycles"], b["cs"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_wall_time(passes, workload):
    traced = passes[workload][1]
    wall = sum(cell["wall_ns"] for cell in traced["cells"])
    assert sum(traced["layers"]["self_ns"].values()) == wall
    assert traced["layers"]["calls"]["harness"] == len(traced["cells"])


@pytest.mark.parametrize("workload,layer", [
    ("lcu_rw", "mem"),
    ("swlock_rw", "lcu"),
    ("lcu_rw", "reliable"),
    ("swlock_rw", "reliable"),
    ("observed", "reliable"),
    ("lcu_rw", "obs"),
    ("swlock_rw", "obs"),
    ("nemesis", "obs"),
])
def test_workload_bypasses_layer(passes, workload, layer):
    assert passes[workload][1]["layers"]["calls"][layer] == 0


@pytest.mark.parametrize("workload,layer", [
    ("lcu_rw", "lcu"), ("swlock_rw", "mem"), ("nemesis", "reliable"),
    ("nemesis", "check"), ("observed", "obs"),
])
def test_workload_exercises_layer(passes, workload, layer):
    assert passes[workload][1]["layers"]["calls"][layer] > 0


def test_tracer_uninstalls():
    from repro.sim.engine import Simulator

    original = Simulator.__dict__["run"]
    tracer = layers.LayerTracer().install()
    assert Simulator.__dict__["run"] is not original
    tracer.uninstall()
    assert Simulator.__dict__["run"] is original


def test_cell_failures_names_each_check():
    def cell(cycles, cs=10, **extra):
        return {"cycles": cycles, "cs": cs, **extra}

    keys = ["a", "b", "c", "d"]
    first = {"cells": [cell(5), cell(6), cell(7, reference=[7, 10]),
                       cell(8, outcome="violated")]}
    second = {"cells": [cell(5), cell(9), {"error": "Boom: x"}, cell(8)]}
    failures = run.cell_failures(keys, [first, second],
                                 golden={"a": [4, 10]})
    assert failures == [
        "pass 0 a: simulated [5, 10] != golden [4, 10]",
        "pass 0 d: nemesis outcome violated",
        "pass 1 a: simulated [5, 10] != golden [4, 10]",
        "pass 1 b: simulated [9, 10] != first pass [6, 10]",
        "pass 1 c: Boom: x",
    ]
    first["cells"][2]["reference"] = [3, 10]
    assert "pass 0 c: observed [7, 10] != unobserved [3, 10]" in \
        run.cell_failures(keys, [first], golden=None)


def test_golden_covers_default_seed_cells():
    golden = run.load_golden()
    keys = {c.key for w in ("lcu_rw", "swlock_rw")
            for c in workload_cells(w, run.GOLDEN_SEED)}
    assert keys == set(golden)


def test_clean_seeds_are_their_own_matrix_seed():
    # 0 and 2 are clean, 1 and 99 are not; 102 wraps to 2
    assert [nemesis_matrix_seed(s) for s in (0, 1, 2, 99, 102)] == \
        [0, 2, 2, 0, 2]


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lcu_rw",
         "--seed", "0", "--seconds", "15", "--trace", "0"],
        capture_output=True, text=True, timeout=run.DEADLINE_S + 10,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["attempted"] == \
        len(workload_cells("lcu_rw", 0)) * run.PASSES["lcu_rw"]
    assert set(result["metrics"]) == {"sim_kcs_per_s", "setup_s",
                                      "peak_rss_mb"}
