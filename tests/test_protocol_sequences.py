"""Protocol conformance: the message sequences of the paper's figures.

Each test drives one canonical scenario and asserts the wire sequence
matches the paper's description (Figures 4-7), using the tracer.  These
are the tightest pins on the protocol — refactorings that change message
counts or ordering on these paths should fail here first.
"""

import pytest

from repro import Machine, OS, small_test_model
from repro.cpu import ops
from repro.lcu import api
from repro.lcu import messages as pm
from repro.obs.spans import Tracer


@pytest.fixture
def m():
    return Machine(small_test_model())


def seq_of(tracer, addr, *types):
    return [
        type(r.payload).__name__
        for r in tracer.records
        if getattr(r.payload, "addr", None) == addr
        and (not types or isinstance(r.payload, types))
    ]


class TestFigure4a:
    def test_free_lock_request(self, m):
        """Free lock: REQUEST -> GRANT(head, from LRT), nothing else."""
        addr = m.alloc.alloc_line()
        tracer = Tracer.attach(m)
        os_ = OS(m)

        def prog(thread):
            yield from api.lock(addr, True)

        os_.spawn(prog)
        os_.run_all()
        assert seq_of(tracer, addr) == ["Request", "Grant"]
        grant = tracer.of_type(pm.Grant)[0].payload
        assert grant.head and grant.from_lrt


class TestFigure4b:
    def test_uncontended_owner_reallocation(self, m):
        """Taken-uncontended lock: the request is forwarded to the owner,
        which re-allocates its entry and answers WAIT."""
        addr = m.alloc.alloc_line()
        os_ = OS(m)
        tracer = Tracer.attach(m)

        def owner(thread):
            yield from api.lock(addr, True)
            yield ops.Compute(4_000)
            yield from api.unlock(addr, True)

        def requester(thread):
            yield ops.Compute(500)
            yield from api.lock(addr, True)
            yield from api.unlock(addr, True)

        os_.spawn(owner)
        os_.spawn(requester)
        os_.run_all()
        m.drain()
        names = seq_of(tracer, addr)
        # request phase for the second thread:
        i = names.index("Request", 1)
        assert names[i:i + 3] == ["Request", "FwdRequest", "WaitMsg"]


class TestFigure5:
    def test_direct_transfer_and_notification(self, m):
        """Handoff: GRANT goes LCU->LCU; the receiver notifies the LRT
        (HeadNotify) and the LRT deallocates the old head (Dealloc) —
        notification strictly off the grant's critical path."""
        addr = m.alloc.alloc_line()
        os_ = OS(m)
        tracer = Tracer.attach(m)
        t_acquired = []

        def owner(thread):
            yield from api.lock(addr, True)
            yield ops.Compute(3_000)
            yield from api.unlock(addr, True)

        def requester(thread):
            yield ops.Compute(300)
            yield from api.lock(addr, True)
            t_acquired.append(m.sim.now)
            yield from api.unlock(addr, True)

        os_.spawn(owner)
        os_.spawn(requester)
        os_.run_all()
        m.drain()

        transfer = [
            r for r in tracer.of_type(pm.Grant)
            if r.payload.addr == addr and not r.payload.from_lrt
        ]
        assert len(transfer) == 1
        src, dst = transfer[0].src, transfer[0].dst
        assert src[0] == "core" and dst[0] == "core", "transfer not direct"

        notifies = [r for r in tracer.of_type(pm.HeadNotify)
                    if r.payload.addr == addr]
        deallocs = [r for r in tracer.of_type(pm.Dealloc)
                    if r.payload.addr == addr]
        assert len(notifies) == 1 and len(deallocs) == 1
        # the receiver acquired before (or independent of) the LRT's
        # dealloc round trip — the notification is off the critical path
        assert t_acquired[0] <= deallocs[0].time


class TestFigure6:
    def test_reader_run_and_token(self, m):
        """Concurrent readers: later readers get share grants; exactly
        one head token travels the chain when the head releases."""
        addr = m.alloc.alloc_line()
        os_ = OS(m)
        tracer = Tracer.attach(m)

        def reader_factory(delay, hold):
            def reader(thread):
                yield ops.Compute(delay)
                yield from api.lock(addr, False)
                yield ops.Compute(hold)
                yield from api.unlock(addr, False)
            return reader

        os_.spawn(reader_factory(1, 4_000))     # head, holds long
        os_.spawn(reader_factory(300, 200))      # releases early: RD_REL
        os_.spawn(reader_factory(600, 200))      # releases early: RD_REL
        os_.run_all()
        m.drain()

        grants = [r.payload for r in tracer.of_type(pm.Grant)
                  if r.payload.addr == addr]
        shares = [g for g in grants if not g.head]
        heads = [g for g in grants if g.head and not g.from_lrt]
        assert len(shares) >= 2, "later readers must get share grants"
        # the head's release bypasses the two RD_REL nodes: token hops
        assert 1 <= len(heads) <= 3
        # no RETRY / no starvation artifacts
        assert not tracer.of_type(pm.Retry)


class TestFigure7:
    def test_timeout_forwards_past_absent_thread(self, m):
        """A grant landing on an entry whose thread vanished is forwarded
        to the next node after the grant timeout."""
        addr = m.alloc.alloc_line()
        os_ = OS(m)
        tracer = Tracer.attach(m)
        got = []

        # tid 77 requests via LCU0 and never collects (absent thread)
        m.lcus[0].instr_acquire(77, addr, True)

        def live_thread(thread):
            yield ops.Compute(100)
            yield from api.lock(addr, True)
            got.append(m.sim.now)
            yield from api.unlock(addr, True)

        os_.spawn(live_thread)
        os_.run_all()
        m.drain()
        assert got and got[0] >= m.config.lcu_grant_timeout
        # two head grants for one acquisition: LRT->absent, absent->live
        heads = [r.payload for r in tracer.of_type(pm.Grant)
                 if r.payload.addr == addr and r.payload.head]
        assert len(heads) == 2
        assert m.lcus[0].stats["timeouts"] == 1
