"""The boundary between the paper's protocol and the recovery layer.

A fresh machine runs the Section III units only: every recovery message
is a protocol error there, and an unfaulted run executes no code from
:mod:`repro.lcu.recovery`.  ``Machine.harden()`` turns the same unit
objects into recovering ones.  The generation tests pin the watermark
that restarts a re-installed lock above its previous queue episode.
"""

import sys

import pytest

from repro import OS, Machine, small_test_model
from repro.cpu import ops
from repro.lcu import api, recovery
from repro.lcu import messages as msg
from repro.lcu.lcu import LockControlUnit, ProtocolError
from repro.lcu.lrt import LockReservationTable, LrtEntry
from repro.lcu.recovery import (
    RECLAIM_GEN_STRIDE, RecoveringLCU, RecoveringLRT, RecoveryLrtEntry,
)
from tests.conftest import drain_and_check

pytestmark = pytest.mark.faults

ADDR = 0x1000


@pytest.fixture
def m():
    return Machine(small_test_model())


def acquire(m, lcu, tid, addr):
    """Spin on ``acq`` the way a thread does, claiming the grant well
    inside the grant timeout."""
    for _ in range(100):
        if lcu.instr_acquire(tid, addr, True):
            return
        m.sim.run(until=m.sim.now + 10)
    raise AssertionError(f"tid {tid} never acquired {addr:#x}")


class TestBaseUnits:
    def test_fresh_machine_runs_the_base_classes(self, m):
        assert all(type(u) is LockControlUnit for u in m.lcus)
        assert all(type(u) is LockReservationTable for u in m.lrts)
        assert not m.hardened

    @pytest.mark.parametrize("message", [
        msg.QueueReset(ADDR, 1),
        msg.QueueProbe(ADDR, 0),
        msg.FencedOperation(ADDR, 0, "release", gen=1),
    ])
    def test_recovery_message_to_base_lcu_is_a_protocol_error(
        self, m, message
    ):
        with pytest.raises(ProtocolError, match="unexpected message"):
            m.lcus[0].on_message(("lrt", 0), message)

    @pytest.mark.parametrize("message", [
        msg.GrantNack(ADDR, 0, 0, 1, True),
        msg.QueueResetAck(ADDR, 0, 0),
        msg.QueueProbeAck(ADDR, 0, True),
    ])
    def test_recovery_message_to_base_lrt_is_a_protocol_error(
        self, m, message
    ):
        m.lrts[0].on_message(("core", 0), message)
        with pytest.raises(ProtocolError, match="unexpected message"):
            m.sim.run()

    def test_heartbeat_to_base_lrt_is_a_protocol_error(self, m):
        with pytest.raises(ProtocolError, match="unexpected message"):
            m.lrts[0].on_message(("core", 0), msg.Heartbeat(0))

    def test_unfaulted_run_executes_no_recovery_code(self, m):
        os_ = OS(m)
        addr = m.alloc.alloc_line()

        def prog(thread):
            for _ in range(3):
                yield from api.lock(addr, thread.tid % 2 == 0)
                yield ops.Compute(40)
                yield from api.unlock(addr, thread.tid % 2 == 0)

        for _ in range(4):
            os_.spawn(prog)
        ran = set()
        path = recovery.__file__

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == path:
                ran.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            os_.run_all()
            m.drain()
        finally:
            sys.setprofile(None)
        assert sum(lcu.stats["acquires"] for lcu in m.lcus) == 12
        assert ran == set()


class TestHarden:
    def test_harden_makes_every_unit_a_recovering_one(self, m):
        lcus, lrts = list(m.lcus), list(m.lrts)
        m.harden()
        assert m.hardened
        assert all(type(u) is RecoveringLCU for u in m.lcus)
        assert all(type(u) is RecoveringLRT for u in m.lrts)
        # the same objects: the network and the OS keep their references
        assert all(a is b for a, b in zip(lcus + lrts, m.lcus + m.lrts))

    def test_second_harden_is_a_noop(self, m):
        m.harden(watchdog_interval=3_000)
        pending = m.sim.pending_events
        m.harden(watchdog_interval=7_000, fencing=False)
        assert m.sim.pending_events == pending, "one watchdog per LRT"
        assert all(lrt._watchdog_interval == 3_000 for lrt in m.lrts)
        assert all(u._fencing for u in m.lcus + m.lrts)

    def test_fencing_false_reaches_both_unit_kinds(self, m):
        m.harden(fencing=False)
        assert not any(u._fencing for u in m.lcus + m.lrts)

    def test_harden_adopts_a_live_lock(self, m):
        lcu = m.lcus[0]
        addr = m.alloc.alloc_line()
        lrt = m.lrts[m.mem.home_of(addr)]
        acquire(m, lcu, 1, addr)
        before = lrt.entry(addr)
        assert type(before) is LrtEntry
        m.harden()
        after = lrt.entry(addr)
        assert type(after) is RecoveryLrtEntry
        assert (after.head, after.tail, after.gen) == (
            before.head, before.tail, before.gen,
        )
        assert lcu.instr_release(1, addr, True) is True
        m.drain(5_000)
        assert lrt.entry(addr) is None
        drain_and_check(m)

    def test_crash_drops_messages_until_restart(self, m):
        m.harden()
        lcu = m.lcus[2]
        m.crash_core(2)
        lcu.on_message(("lrt", 0), msg.Dealloc(ADDR, 5))
        lcu.on_message(("lrt", 0), msg.QueueReset(ADDR, 1))
        assert lcu.stats["dead_drops"] == 2
        m.restart_core(2)
        lcu.on_message(("lrt", 0), msg.Dealloc(ADDR, 5))
        assert lcu.stats["dead_drops"] == 2


class TestCrossEpisodeGenerations:
    """A reclaimed lock whose LRT entry is later removed must resume
    above every generation of its previous queue episode: a fresh entry
    restarting at gen 0 would sit below the reclaim floor and let a
    delayed message from the old episode outrank the new queue."""

    def _reclaimed_then_removed(self, m):
        """Holder + waiter on one lock; the waiter's node is evicted,
        the head grant hits the dead node and the LRT reclaims.  Runs
        until the lock's LRT entry is gone."""
        m.harden()
        os_ = OS(m)
        addr = m.alloc.alloc_line()
        lrt = m.lrts[m.mem.home_of(addr)]

        def holder(thread):
            yield from api.lock(addr, True)
            yield ops.Compute(5_000)
            yield from api.unlock(addr, True)

        def waiter(thread):
            yield ops.Compute(200)
            yield from api.lock(addr, True)
            yield from api.unlock(addr, True)

        os_.spawn(holder)
        os_.spawn(waiter)
        m.sim.run(until=1_500)
        [key] = m.lcus[1].evictable_entries()
        assert m.lcus[1].force_evict(*key)
        os_.run_all(max_cycles=2_000_000)
        m.drain(100_000)
        assert lrt.stats.get("reclaims", 0) == 1
        assert lrt.entry(addr) is None
        return addr, lrt

    def test_rerequest_resumes_above_the_old_episode(self, m):
        addr, lrt = self._reclaimed_then_removed(m)
        floor = lrt._gen_floor[addr]
        high = lrt._gen_high[addr]
        assert floor >= RECLAIM_GEN_STRIDE and high >= floor
        lcu = m.lcus[3]
        acquire(m, lcu, 7, addr)
        e = lrt.entry(addr)
        assert e.gen > floor and e.gen > high
        assert e.head == msg.Who(7, 3, True)

        # A HeadNotify from the old episode, delayed until now, carries
        # a generation at or below the watermark: it is answered with a
        # Dealloc and must not move the head pointer.
        stale = lrt.stats["stale_notifies"]
        m.net.send(
            ("core", 2), ("lrt", lrt.lrt_id),
            msg.HeadNotify(addr, msg.Who(9, 2, True), high),
        )
        m.drain(5_000)
        assert lrt.stats["stale_notifies"] == stale + 1
        assert lrt.entry(addr).head == msg.Who(7, 3, True)
        assert lcu.instr_release(7, addr, True) is True
        m.drain(5_000)
        assert lrt.entry(addr) is None
        drain_and_check(m)

    def test_late_duplicate_release_acked_below_floor_fenced(self, m):
        # The two monotone marks differ on releases: a late duplicate
        # from the old episode (gen in [floor, high]) is acked, while
        # one issued under a reclaimed hold (gen below the floor) is
        # fenced.  A fence merged at the watermark would fence both.
        addr, lrt = self._reclaimed_then_removed(m)
        floor = lrt._gen_floor[addr]
        high = lrt._gen_high[addr]
        assert floor < high
        lcu = m.lcus[2]
        rel = msg.Who(9, 2, True)
        stray = lrt.stats.get("stray_releases", 0)
        fenced = lrt.stats.get("fenced_releases", 0)
        fenced_ops = lcu.stats.get("fenced_ops", 0)

        m.net.send(("core", 2), ("lrt", lrt.lrt_id),
                   msg.ReleaseMsg(addr, rel, gen=floor))
        m.drain(5_000)
        assert lrt.stats["stray_releases"] == stray + 1
        assert lrt.stats.get("fenced_releases", 0) == fenced
        assert lcu.stats.get("fenced_ops", 0) == fenced_ops

        m.net.send(("core", 2), ("lrt", lrt.lrt_id),
                   msg.ReleaseMsg(addr, rel, gen=floor - 1))
        m.drain(5_000)
        assert lrt.stats["stray_releases"] == stray + 1
        assert lrt.stats["fenced_releases"] == fenced + 1
        assert lcu.stats["fenced_ops"] == fenced_ops + 1
        assert lrt.entry(addr) is None
        drain_and_check(m)
