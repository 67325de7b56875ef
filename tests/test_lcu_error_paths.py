"""Defensive protocol paths: illegal messages must be loud, benign
stragglers must be ignored.  These tests inject raw messages into the
LCU/LRT state machines."""

import pytest

from repro import Machine, OS, small_test_model
from repro.cpu import ops
from repro.lcu import api
from repro.lcu import messages as pm
from repro.lcu.entry import ISSUED
from repro.lcu.lcu import ProtocolError
from repro.lcu.messages import Who


@pytest.fixture
def m():
    return Machine(small_test_model())


class TestLcuDefensive:
    def test_grant_for_missing_entry_is_loud(self, m):
        addr = m.alloc.alloc_line()
        with pytest.raises(ProtocolError):
            m.lcus[0].on_message(
                ("lrt", 0), pm.Grant(addr, tid=9, head=True, gen=1)
            )

    def test_unknown_message_is_loud(self, m):
        with pytest.raises(ProtocolError):
            m.lcus[0].on_message(("core", 1), object())

    def test_share_grant_to_writer_is_loud(self, m):
        addr = m.alloc.alloc_line()
        lcu = m.lcus[0]
        lcu.instr_acquire(1, addr, write=True)   # ISSUED writer entry
        with pytest.raises(ProtocolError):
            lcu.on_message(
                ("core", 1), pm.Grant(addr, tid=1, head=False, gen=1)
            )

    def test_stray_wait_msg_ignored(self, m):
        addr = m.alloc.alloc_line()
        # no entry at all: WaitMsg must be a no-op
        m.lcus[0].on_message(("core", 1), pm.WaitMsg(addr, tid=5))
        assert m.lcus[0].entries_in_use == 0

    def test_stray_release_ack_ignored(self, m):
        addr = m.alloc.alloc_line()
        m.lcus[0].on_message(("lrt", 0), pm.ReleaseAck(addr, tid=5))
        assert m.lcus[0].entries_in_use == 0

    def test_stray_dealloc_ignored(self, m):
        addr = m.alloc.alloc_line()
        m.lcus[0].on_message(("lrt", 0), pm.Dealloc(addr, tid=5))

    def test_retry_for_non_issued_entry_is_loud(self, m):
        addr = m.alloc.alloc_line()
        lcu = m.lcus[0]
        lcu.instr_acquire(1, addr, True)
        m.sim.run(until=m.sim.now + 5_000,
                  stop_when=lambda: lcu.poll_ready(1, addr))
        # entry is now RCV; a RETRY for its own issue is a protocol
        # violation
        seq = lcu.entry(1, addr).req_seq
        with pytest.raises(ProtocolError):
            lcu.on_message(("lrt", 0), pm.Retry(addr, tid=1, seq=seq))

    @pytest.mark.parametrize("kind", ["retry", "wait"])
    @pytest.mark.parametrize("other", ["zero", "next"])
    def test_reply_for_other_issue_ignored(self, m, kind, other):
        """A RETRY or WAIT whose seq is not the entry's ``req_seq`` (0,
        which no issue carries, or another issue's seq) leaves the
        ISSUED entry untouched."""
        addr = m.alloc.alloc_line()
        lcu = m.lcus[0]
        lcu.instr_acquire(1, addr, True)
        e = lcu.entry(1, addr)
        assert e.status == ISSUED and e.req_seq >= 1
        seq = 0 if other == "zero" else e.req_seq + 1
        reply = (pm.Retry if kind == "retry" else pm.WaitMsg)(
            addr, tid=1, seq=seq
        )
        lcu.on_message(("lrt", 0), reply)
        assert lcu.entry(1, addr) is e
        assert e.status == ISSUED


class TestLrtDefensive:
    def test_release_of_unknown_lock_is_loud(self, m):
        addr = m.alloc.alloc_line()
        lrt = m.lrts[m.mem.home_of(addr)]
        with pytest.raises(ProtocolError):
            lrt._process(
                pm.ReleaseMsg(addr, Who(1, 0, True), overflow=False)
            )

    def test_overflow_release_underflow_is_loud(self, m):
        addr = m.alloc.alloc_line()
        lrt = m.lrts[m.mem.home_of(addr)]
        # create an entry via a normal request first
        lrt._process(pm.Request(addr, Who(1, 0, True)))
        with pytest.raises(ProtocolError):
            lrt._process(
                pm.ReleaseMsg(addr, Who(2, 1, False), overflow=True)
            )

    def test_head_notify_for_unknown_lock_is_loud(self, m):
        addr = m.alloc.alloc_line()
        lrt = m.lrts[m.mem.home_of(addr)]
        with pytest.raises(ProtocolError):
            lrt._process(pm.HeadNotify(addr, Who(1, 0, True), gen=5))

    def test_ovf_check_for_unknown_lock_clears(self, m):
        """An OvfCheck racing a full release must clear the writer, not
        wedge it."""
        addr = m.alloc.alloc_line()
        lrt = m.lrts[m.mem.home_of(addr)]
        cleared = []

        def on_send(src, dst, payload):
            if isinstance(payload, pm.OvfClear):
                cleared.append(payload)

        m.sim.bus.net.append(on_send)
        lrt._process(pm.OvfCheck(addr, tid=3, lcu=1))
        assert cleared


class TestRemoteReleaseRecovery:
    def test_walk_failure_eventually_resolves_or_raises(self, m):
        """A remote release for a thread that never held the lock drives
        the retry machinery to its cap and then raises (loud, as a
        program error should be)."""
        os_ = OS(m)
        addr = m.alloc.alloc_line()

        def holder(thread):
            yield from api.lock(addr, True)
            yield ops.Compute(50_000)
            yield from api.unlock(addr, True)

        os_.spawn(holder)
        m.sim.run(until=2_000)
        # bogus remote release: tid 99 never requested this lock
        assert m.lcus[3].instr_release(99, addr, True)
        with pytest.raises(ProtocolError):
            m.sim.run(until=m.sim.now + 100_000)
