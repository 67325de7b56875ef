"""Seeded-order results pinned against a recorded golden file.

Every nemesis cell runs in seeded (tiebreak) order, and so does the
schedule fuzzer.  The differential tests in ``test_engine_equiv.py``
prove the engine dispatches like the heapq oracle, but both sides of
that comparison run the code under test; nothing else pins what a
faulted, seeded run *produces*.  This file does: eleven nemesis cells
at matrix seed 0 (``lcu`` and ``lcu_fb`` on Models A and B, one per
fault class from ``drop`` to ``slow_core``) and one seeded
microbenchmark cell, each with its simulated result and the counters
that recovery and the engine leave behind.  The cells of the fault
classes that drive the LCU-side fault surfaces (eviction, FLT storms,
capacity clamps, crash-restart, slow cores) also pin the summed LCU
counters.  A change to the event store, the network, the message
records or the recovery layer must leave all of it byte-identical.

Regenerate after an intentional model change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_seeded_golden.py
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib

import pytest

from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.faults.nemesis import run_cell
from repro.locks.base import get_algorithm
from repro.params import model_b

from .conftest import RWTracker, cs_program

pytestmark = pytest.mark.engine

# the package re-exports a ``fuzz`` function under the module's name
fuzz_mod = importlib.import_module("repro.check.fuzz")

GOLDEN = pathlib.Path(__file__).parent / "data" / "seeded_golden.json"

#: (algo, model, fault class), all at matrix seed 0
NEMESIS_CELLS = [
    ("lcu", "A", "crash_core"),
    ("lcu", "A", "partition_links"),
    ("lcu", "B", "zombie_core"),
    ("lcu_fb", "A", "crash_core"),
    ("lcu_fb", "B", "drop"),
    ("lcu_fb", "B", "partition_links"),
]

#: further cells at matrix seed 0, also pinning the summed LCU counters
FAULT_PATH_CELLS = [
    ("lcu", "B", "evict"),
    ("lcu", "B", "flt_storm"),
    ("lcu_fb", "B", "capacity"),
    ("lcu", "A", "restart_core"),
    ("lcu_fb", "B", "slow_core"),
]

MICROBENCH_TIEBREAK_SEED = 4242


def _recovery_counters(machine):
    """Reliable-layer and LRT counters (LRT stats summed over tables)."""
    reliable = machine.net.reliable
    return {
        "reliable": None if reliable is None else reliable.stats(),
        "lrt": _summed_stats(machine.lrts),
    }


def _summed_stats(units):
    total = {}
    for unit in units:
        for key, value in unit.stats.items():
            total[key] = total.get(key, 0) + value
    return dict(sorted(total.items()))


def _nemesis_cell(monkeypatch, algo, model, fault, lcu_counters=False):
    built = []

    class Recording(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(fuzz_mod, "Machine", Recording)
    cell = run_cell(algo, model, fault, 0)
    monkeypatch.undo()
    (machine,) = built
    got = {
        "cell": f"{algo}/{model}/{fault}",
        "outcome": cell.outcome,
        "injected": cell.injected,
        "elapsed": cell.elapsed,
        "total_cs": cell.total_cs,
        "events": machine.sim.events_processed,
        "messages": machine.net.messages_sent,
        **_recovery_counters(machine),
    }
    if lcu_counters:
        got["lcu"] = _summed_stats(machine.lcus)
    return got


def _microbench_cell():
    """The lcu lock on Model B, 8 threads, 60% writes, seeded order."""
    machine = Machine(model_b(), tiebreak_seed=MICROBENCH_TIEBREAK_SEED)
    os_ = OS(machine)
    algo = get_algorithm("lcu")(machine)
    handle = algo.make_lock()
    tracker = RWTracker()

    def write_of(thread, i):
        return (thread.tid * 2654435761 + i * 40503) % 100 < 60

    for _ in range(8):
        os_.spawn(cs_program(algo, handle, tracker, 20, write_of=write_of))
    elapsed = os_.run_all(max_cycles=5_000_000)
    machine.drain()
    return {
        "cell": f"lcu/B/microbench/tiebreak{MICROBENCH_TIEBREAK_SEED}",
        "elapsed": elapsed,
        "total_cs": tracker.total,
        "messages": machine.net.messages_sent,
        "reorders_healed": machine.net.reorders_healed,
        "engine": machine.sim.engine_stats(),
    }


def test_seeded_results_match_golden(monkeypatch):
    got = {
        "nemesis": [_nemesis_cell(monkeypatch, *c) for c in NEMESIS_CELLS]
        + [
            _nemesis_cell(monkeypatch, *c, lcu_counters=True)
            for c in FAULT_PATH_CELLS
        ],
        "microbench": _microbench_cell(),
    }
    # normalise through JSON so float and tuple spellings compare alike
    got = json.loads(json.dumps(got))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip("seeded golden regenerated")
    assert GOLDEN.exists(), "golden file missing; run with REPRO_REGEN_GOLDEN=1"
    want = json.loads(GOLDEN.read_text())
    for g, w in zip(got["nemesis"], want["nemesis"]):
        assert g == w, g["cell"]
    assert len(got["nemesis"]) == len(want["nemesis"])
    assert got["microbench"] == want["microbench"]
