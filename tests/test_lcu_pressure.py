"""Pressure paths: FLT eviction storms, forced entry-capacity clamps,
forced queue-node eviction + reclaim, and preemption/stall bursts.

These are the *existing* protocol paths the nemesis leans on — each test
drives one of them directly (no fault plan) so a matrix failure can be
localised to the mechanism rather than the injector.  The fault
surfaces belong to the recovery layer, so the tests that call them
harden the machine first."""

import pytest

from repro import OS, Machine, small_test_model
from repro.cpu import ops
from repro.lcu import api
from tests.conftest import RWTracker, drain_and_check


@pytest.fixture
def m():
    return Machine(small_test_model())


@pytest.fixture
def hm():
    machine = Machine(small_test_model())
    machine.harden()
    return machine


class TestFltPressure:
    def test_force_flt_evict_flushes_park_as_release(self):
        m = Machine(small_test_model(flt_entries=4))
        m.harden()
        os_ = OS(m)
        addr = m.alloc.alloc_line()

        def prog(thread):
            yield from api.lock(addr, True)
            yield ops.Compute(50)
            yield from api.unlock(addr, True)

        os_.spawn(prog)
        os_.run_all()
        lcu = m.lcus[0]
        assert addr in lcu._flt, "uncontended unlock parks in the FLT"
        assert lcu.force_flt_evict() is True
        assert addr not in lcu._flt
        drain_and_check(m)
        assert lcu.stats["flt_forced_evictions"] == 1

    def test_force_flt_evict_empty_returns_false(self, hm):
        assert hm.lcus[0].force_flt_evict() is False
        assert hm.lcus[0].force_flt_evict(0x1234) is False

    def test_reacquire_after_flt_evict_goes_remote(self):
        """After the park is flushed the next acquire is a fresh LRT
        request, not a biased FLT hit — and still correct."""
        m = Machine(small_test_model(flt_entries=4))
        m.harden()
        os_ = OS(m)
        addr = m.alloc.alloc_line()
        tracker = RWTracker()

        def prog(thread):
            yield from api.lock(addr, True)
            tracker.enter(True)
            yield ops.Compute(50)
            tracker.exit(True)
            yield from api.unlock(addr, True)
            # park is flushed from under the thread here (run_all drains
            # before our second spawn below)

        os_.spawn(prog)
        os_.run_all()
        m.lcus[0].force_flt_evict(addr)
        m.drain(5_000)
        hits_before = m.lcus[0].stats.get("flt_hits", 0)

        def again(thread):
            yield from api.lock(addr, True)
            tracker.enter(True)
            yield ops.Compute(50)
            tracker.exit(True)
            yield from api.unlock(addr, True)

        os_.spawn(again)
        os_.run_all()
        assert m.lcus[0].stats.get("flt_hits", 0) == hits_before
        drain_and_check(m)


class TestCapacityClamp:
    def test_zero_capacity_exhausts_after_escape_entry(self, hm):
        """Clamping to zero leaves only the LOCAL escape-hatch entry;
        the second concurrent request on the same LCU must fail and be
        counted."""
        lcu = hm.lcus[0]
        lcu.set_forced_capacity(0)
        assert lcu._alloc(0x100, 0, True) is not None, "escape entry"
        assert lcu._alloc(0x140, 1, True) is None
        assert lcu.stats["alloc_failures"] == 1

    def test_zero_capacity_clamp_lifts_and_recovers(self, hm):
        os_ = OS(hm)
        addr = hm.alloc.alloc_line()
        tracker = RWTracker()
        done = []

        for lcu in hm.lcus:
            lcu.set_forced_capacity(0)
        # lift the clamp mid-run; every pending acquire then succeeds
        hm.sim.at(3_000, lambda: [
            lcu.set_forced_capacity(None) for lcu in hm.lcus
        ])

        def prog_factory(i):
            def prog(thread):
                yield from api.lock(addr, True)
                tracker.enter(True)
                yield ops.Compute(30)
                tracker.exit(True)
                yield from api.unlock(addr, True)
                done.append(i)
            return prog

        for i in range(3):
            os_.spawn(prog_factory(i))
        os_.run_all()
        assert sorted(done) == [0, 1, 2]
        drain_and_check(hm)

    def test_clamp_restores_configured_limit(self, hm):
        lcu = hm.lcus[0]
        lcu.set_forced_capacity(1)
        assert lcu._forced_capacity == 1
        lcu.set_forced_capacity(None)
        assert lcu._forced_capacity is None


class TestForcedEviction:
    def test_evict_requires_waiting_ordinary_node(self, hm):
        os_ = OS(hm)
        addr = hm.alloc.alloc_line()

        def holder(thread):
            yield from api.lock(addr, True)
            yield ops.Compute(4_000)
            yield from api.unlock(addr, True)

        os_.spawn(holder)
        hm.sim.run(until=1_000)
        # the holder's entry was freed on the uncontended grant: nothing
        # is evictable, and unknown keys are refused
        assert hm.lcus[0].evictable_entries() == []
        assert hm.lcus[0].force_evict(addr, 0) is False
        os_.run_all()
        drain_and_check(hm)

    def test_evicted_waiter_recovers_via_reclaim(self, m):
        """Evict a waiting queue node mid-contention: the hardened
        protocol must reclaim the orphaned queue and still run every
        critical section exactly once."""
        m.harden(watchdog_interval=2_000, silence_threshold=4_000)
        os_ = OS(m)
        addr = m.alloc.alloc_line()
        tracker = RWTracker()
        done = []

        def prog_factory(i):
            def prog(thread):
                yield from api.lock(addr, True)
                tracker.enter(True)
                yield ops.Compute(600)
                tracker.exit(True)
                yield from api.unlock(addr, True)
                done.append(i)
            return prog

        for i in range(4):
            os_.spawn(prog_factory(i))

        def evict_one():
            for lcu in m.lcus:
                for key in lcu.evictable_entries():
                    lcu.force_evict(*key)
                    return

        m.sim.at(700, evict_one)
        os_.run_all(max_cycles=2_000_000)
        assert sorted(done) == [0, 1, 2, 3]
        evictions = sum(
            lcu.stats.get("forced_evictions", 0) for lcu in m.lcus
        )
        assert evictions == 1, "the eviction must have landed mid-queue"
        reclaims = sum(
            lrt.stats.get("reclaims", 0) for lrt in m.lrts
        )
        assert reclaims >= 1, "recovery must go through queue reclaim"
        m.drain(100_000)
        drain_and_check(m)

    def test_tombstone_blocks_rerequest_until_reset(self, m):
        """Between eviction and the QueueReset the (addr, tid) key must
        not re-enter the queue — the dead node is still linked there."""
        m.harden()
        os_ = OS(m)
        addr = m.alloc.alloc_line()

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
        lcu = m.lcus[1]
        [key] = lcu.evictable_entries()
        assert lcu.force_evict(*key)
        assert key in lcu._evicted
        # the spinning waiter keeps retrying acq: all refused while the
        # tombstone stands
        m.sim.run(until=2_500)
        assert lcu.stats.get("tombstoned_acqs", 0) > 0
        assert lcu.entry(key[1], key[0]) is None
        os_.run_all(max_cycles=2_000_000)
        m.drain(100_000)
        assert key not in lcu._evicted, "QueueReset must clear tombstones"
        drain_and_check(m)


class TestSchedulerBursts:
    def _contended_workload(self, m, os_, iters=6):
        addr = m.alloc.alloc_line()
        tracker = RWTracker()
        done = []

        def prog_factory(i):
            def prog(thread):
                for _ in range(iters):
                    yield from api.lock(addr, True)
                    tracker.enter(True)
                    yield ops.Compute(40)
                    tracker.exit(True)
                    yield from api.unlock(addr, True)
                    yield ops.Compute(20)
                done.append(i)
            return prog

        for i in range(4):
            os_.spawn(prog_factory(i))
        return done

    def test_preempt_burst_mid_contention(self, m):
        os_ = OS(m)
        done = self._contended_workload(m, os_)
        for at in (500, 1_500, 3_000):
            m.sim.at(at, lambda: os_.force_preempt_all(migrate=False))
        os_.run_all(max_cycles=2_000_000)
        assert sorted(done) == [0, 1, 2, 3]
        assert os_.forced_preemptions > 0
        drain_and_check(m)

    def test_preempt_burst_with_migration(self, m):
        os_ = OS(m)
        done = self._contended_workload(m, os_)
        m.sim.at(800, lambda: os_.force_preempt_all(migrate=True))
        os_.run_all(max_cycles=2_000_000)
        assert sorted(done) == [0, 1, 2, 3]
        drain_and_check(m)

    def test_core_stall_window(self, m):
        os_ = OS(m)
        done = self._contended_workload(m, os_)
        m.sim.at(600, lambda: os_.stall_core(0, 5_000))
        os_.run_all(max_cycles=2_000_000)
        assert sorted(done) == [0, 1, 2, 3]
        assert os_.forced_stalls == 1
        drain_and_check(m)

    def test_stall_window_extension_is_idempotent(self, m):
        os_ = OS(m)
        done = self._contended_workload(m, os_)
        # a shorter overlapping stall must not shrink the active window
        m.sim.at(600, lambda: os_.stall_core(1, 4_000))
        m.sim.at(700, lambda: os_.stall_core(1, 100))
        os_.run_all(max_cycles=2_000_000)
        assert sorted(done) == [0, 1, 2, 3]
        assert os_.forced_stalls == 1, "subsumed window must not count"
        drain_and_check(m)
