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
counters.  A ``swlock`` section pins the software locks, which run on
the coherence directory rather than the LCU: ``mcs``, ``mrsw``,
``ticket``, ``tatas`` (local spinning through ``WaitLine``) and ``mao``
(remote atomics at the controller) on Models A and B, in stable and
in seeded order, each with the memory system's counters, every
directory slice's occupancy and the engine's queue statistics.  A
change to the event store, the network, the memory system, the message
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
from repro.params import model_a, model_b

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

#: (algo, model, tiebreak seed) of the software-lock cells, in the
#: file's order: each lock in stable order (None) and in seeded order
SWLOCK_TIEBREAK_SEED = 4242
SWLOCK_CELLS = [
    (algo, model, tiebreak_seed)
    for model in ("A", "B")
    for algo in ("mcs", "mrsw", "ticket", "tatas", "mao")
    for tiebreak_seed in (None, SWLOCK_TIEBREAK_SEED)
]


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


def _swlock_cell(algo, model, tiebreak_seed):
    """One software lock, 8 threads x 20 critical sections, 60% writes
    (the mutexes ignore the mode)."""
    config = model_a() if model == "A" else model_b()
    machine = Machine(config, tiebreak_seed=tiebreak_seed)
    os_ = OS(machine)
    lock = get_algorithm(algo)(machine)
    handle = lock.make_lock()
    tracker = RWTracker()

    def write_of(thread, i):
        return (thread.tid * 2654435761 + i * 40503) % 100 < 60

    for _ in range(8):
        os_.spawn(cs_program(lock, handle, tracker, 20, write_of=write_of))
    elapsed = os_.run_all(max_cycles=5_000_000)
    machine.drain()
    mem = machine.mem
    dirs = mem.dir_servers
    return {
        "cell": f"{algo}/{model}/"
        + ("stable" if tiebreak_seed is None else f"tiebreak{tiebreak_seed}"),
        "elapsed": elapsed,
        "total_cs": tracker.total,
        "messages": machine.net.messages_sent,
        "mem": {
            "l1_hits": mem.l1_hits,
            "l1_misses": mem.l1_misses,
            "invalidations": mem.invalidations,
            "owner_forwards": mem.owner_forwards,
        },
        "dir_busy_cycles": [s.busy_cycles for s in dirs],
        "dir_requests": [s.requests for s in dirs],
        "engine": machine.sim.engine_stats(),
    }


def _golden(got):
    """The recorded sections named in ``got``.  With REPRO_REGEN_GOLDEN
    set, write ``got`` over those sections (the others are kept) and
    skip."""
    # normalise through JSON so float and tuple spellings compare alike
    got = json.loads(json.dumps(got))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data.update(got)
        GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        pytest.skip("seeded golden regenerated")
    assert GOLDEN.exists(), "golden file missing; run with REPRO_REGEN_GOLDEN=1"
    want = json.loads(GOLDEN.read_text())
    return got, want


def test_seeded_results_match_golden(monkeypatch):
    got, want = _golden({
        "nemesis": [_nemesis_cell(monkeypatch, *c) for c in NEMESIS_CELLS]
        + [
            _nemesis_cell(monkeypatch, *c, lcu_counters=True)
            for c in FAULT_PATH_CELLS
        ],
        "microbench": _microbench_cell(),
    })
    for g, w in zip(got["nemesis"], want["nemesis"]):
        assert g == w, g["cell"]
    assert len(got["nemesis"]) == len(want["nemesis"])
    assert got["microbench"] == want["microbench"]


def test_swlock_results_match_golden():
    """The software locks on the coherence path: a change to the memory
    system must leave every cycle, message and counter where it was."""
    got, want = _golden({
        "swlock": [_swlock_cell(*c) for c in SWLOCK_CELLS],
    })
    for g, w in zip(got["swlock"], want["swlock"]):
        assert g == w, g["cell"]
    assert len(got["swlock"]) == len(want["swlock"])
