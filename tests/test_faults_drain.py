"""The hardened drain's idle stop against the full-length drain.

A hardened machine's watchdog and heartbeat ticks never let the event
queue empty, so its post-run drain used to run to its cap every time.
:meth:`Machine.drain` now stops at the first heartbeat-wave boundary at
which :meth:`Machine.lock_machinery_idle` holds.  The full-length drain
stays the reference: forcing the idle test off must give the same
verdict, clocks, injection counts and LCU/LRT counters, and a machine
that never goes idle must still drain to the cap and report at the same
cycle as before.
"""

from __future__ import annotations

import pytest

from repro.check.invariants import (
    InvariantMonitor,
    InvariantViolation,
    check_quiescent,
)
from repro.cpu import ops
from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.faults.nemesis import run_cell
from repro.locks.base import get_algorithm
from repro.params import model_a, small_test_model

from .test_engine_equiv import NEMESIS_CELLS as EQUIV_CELLS
from .test_seeded_golden import FAULT_PATH_CELLS, NEMESIS_CELLS

pytestmark = pytest.mark.faults

#: (algo, model, fault, matrix seed, threads, iters): the seeded-golden
#: cells at their defaults and the engine-equivalence cells at theirs
CELLS = [
    (a, m, f, 0, 6, 30) for a, m, f in NEMESIS_CELLS + FAULT_PATH_CELLS
] + [(a, m, f, s, 4, 8) for a, m, f, s in EQUIV_CELLS]


def _summed(units):
    total = {}
    for unit in units:
        for key, value in unit.stats.items():
            total[key] = total.get(key, 0) + value
    return total


def _run(monkeypatch, algo, model, fault, seed, threads, iters):
    built = []
    init = Machine.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Machine, "__init__", recording)
    cell = run_cell(algo, model, fault, seed, threads=threads, iters=iters)
    monkeypatch.setattr(Machine, "__init__", init)
    (machine,) = built
    return cell.to_dict(), machine


@pytest.mark.parametrize(
    "algo,model,fault,seed,threads,iters", CELLS,
    ids=[f"{a}-{m}-{f}-s{s}" for a, m, f, s, _t, _i in CELLS],
)
def test_idle_stop_matches_full_drain(monkeypatch, algo, model, fault, seed,
                                      threads, iters):
    got, idle = _run(monkeypatch, algo, model, fault, seed, threads, iters)
    with monkeypatch.context() as patch:
        patch.setattr(Machine, "lock_machinery_idle", lambda self: False)
        want, full = _run(monkeypatch, algo, model, fault, seed, threads,
                          iters)
    assert got == want
    assert _summed(idle.lcus) == _summed(full.lcus)
    assert _summed(idle.lrts) == _summed(full.lrts)
    # the stop happened: the reference ran the whole tail
    assert idle.sim.now < full.sim.now
    assert idle.sim.events_processed < full.sim.events_processed


def _leaky_machine():
    """A hardened, beating machine whose one thread took a write lock
    and exited holding it: its home LRT keeps the lock live forever."""
    machine = Machine(small_test_model(), tiebreak_seed=1)
    machine.harden()
    machine.start_heartbeats()
    os_ = OS(machine)
    algo = get_algorithm("lcu")(machine)
    handle = algo.make_lock()

    def leak(thread):
        yield from algo.acquire(thread, handle, True)
        yield ops.Compute(10)

    os_.spawn(leak)
    os_.run_all()
    return machine


def test_leaked_lock_drains_to_the_cap():
    machine = _leaky_machine()
    assert not machine.lock_machinery_idle()
    start = machine.sim.now
    with pytest.raises(InvariantViolation) as info:
        check_quiescent(machine)
    assert info.value.invariant == "quiescence"
    assert info.value.time == start + 200_000
    assert "live lock" in info.value.details["problem0"]


def test_unhardened_drain_runs_until_the_queue_empties():
    machine = Machine(small_test_model())
    machine.sim.after(7, lambda: None)
    machine.drain(1_000)
    assert machine.sim.now == 7


def test_monitor_window_keeps_lock_messages_past_a_heartbeat_tick():
    """Model A sends 32 x 32 beats per tick; none may push the last
    lock-protocol messages out of a violation's window."""
    machine = Machine(model_a(), tiebreak_seed=3)
    os_ = OS(machine)
    algo = get_algorithm("lcu")(machine)
    handle = algo.make_lock()
    monitor = InvariantMonitor(machine, algo).attach()
    machine.harden()
    machine.start_heartbeats()

    def worker(thread):
        for _ in range(3):
            yield from algo.acquire(thread, handle, True)
            yield ops.Compute(20)
            yield from algo.release(thread, handle, True)

    for _ in range(4):
        os_.spawn(worker)
    os_.run_all()
    sent = machine.net.messages_sent
    # past the next wave: every core's tick has sent its beats
    machine.sim.run(until=machine.sim.now + 5_000 + 64)
    window = monitor.recent_events()
    monitor.detach()
    assert machine.net.messages_sent - sent >= 32 * 32
    assert len(window) == monitor.history
    assert not any("Heartbeat" in line for line in window)
