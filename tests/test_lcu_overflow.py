"""Resource-exhaustion tests: nonblocking LCU entries, overflow-mode
readers, the reservation mechanism, and LRT spill/refill (paper III-D/E)."""

import pytest

from repro import Machine, OS, small_test_model
from repro.cpu import ops
from repro.lcu import api
from tests.conftest import RWTracker, drain_and_check


@pytest.fixture
def m():
    # 2 ordinary entries per LCU: exhaustion is easy to trigger
    return Machine(small_test_model(lcu_ordinary_entries=2))


class TestLcuEntryExhaustion:
    def test_more_held_locks_than_entries(self, m):
        """A thread holding many locks at once exceeds the LCU's ordinary
        entries; nonblocking entries keep it live (paper III-D)."""
        os_ = OS(m)
        addrs = [m.alloc.alloc_line() for _ in range(6)]
        done = []

        def prog(thread):
            for a in addrs:
                yield from api.lock(a, True)
            yield ops.Compute(50)
            for a in reversed(addrs):
                yield from api.unlock(a, True)
            done.append(True)

        os_.spawn(prog)
        os_.run_all(max_cycles=100_000_000)
        assert done
        drain_and_check(m)

    def test_exhaustion_under_contention(self, m):
        """Several threads on one core's worth of entries contending over
        many locks: all must finish."""
        os_ = OS(m, quantum=3_000)
        addrs = [m.alloc.alloc_line() for _ in range(5)]
        trackers = {a: RWTracker() for a in addrs}
        done = [0]

        def prog_factory(i):
            def prog(thread):
                for k in range(8):
                    a = addrs[(i + k) % len(addrs)]
                    write = (i + k) % 2 == 0
                    yield from api.lock(a, write)
                    trackers[a].enter(write)
                    yield ops.Compute(60)
                    trackers[a].exit(write)
                    yield from api.unlock(a, write)
                done[0] += 1
            return prog

        n = m.config.cores * 2
        for i in range(n):
            os_.spawn(prog_factory(i))
        os_.run_all(max_cycles=500_000_000)
        for t in trackers.values():
            t.assert_clean()
        assert done[0] == n
        drain_and_check(m)

    def test_alloc_failures_recorded(self, m):
        lcu = m.lcus[0]
        addrs = [m.alloc.alloc_line() for _ in range(8)]
        # Fill ordinary entries + the local nonblocking entry
        for a in addrs[:3]:
            lcu.instr_acquire(1, a, True)
        # Next acquire has nowhere to go
        assert lcu.instr_acquire(1, addrs[3], True) is False
        assert lcu.stats["alloc_failures"] >= 1


class TestOverflowReaders:
    def test_overflow_reader_granted_without_queue(self, m):
        """When a nonblocking entry read-requests a lock held in read
        mode, the LRT grants in overflow mode (reader_cnt, no queue).

        Ordinary entries only stay allocated while *enqueued* (uncontended
        holds free them), so we pin them with requests queued behind a
        long-lived holder on another core."""
        os_ = OS(m)
        hot = m.alloc.alloc_line()
        extra = [m.alloc.alloc_line() for _ in range(2)]
        tracker = RWTracker()
        lrt = m.lrts[m.mem.home_of(hot)]
        observed = []
        release_blockers = []

        def blocker(thread):
            for a in extra:
                yield from api.lock(a, True)
            while not release_blockers:
                yield ops.Compute(500)
            for a in reversed(extra):
                yield from api.unlock(a, True)

        def base_reader(thread):
            yield ops.Compute(300)
            yield from api.lock(hot, False)
            tracker.enter(False)
            yield ops.Compute(8_000)
            tracker.exit(False)
            yield from api.unlock(hot, False)

        def overflowing_reader(thread):
            yield ops.Compute(600)  # blocker holds extra; base holds hot
            lcu = m.lcus[thread.core]
            # pin both ordinary entries as WAIT queue nodes
            for a in extra:
                yield ops.LcuAcq(a, True)
            yield ops.Compute(200)
            yield from api.lock(hot, False)   # must use nonblocking entry
            tracker.enter(False)
            e = lrt.entry(hot)
            observed.append(e.reader_cnt if e else None)
            yield ops.Compute(200)
            tracker.exit(False)
            yield from api.unlock(hot, False)
            release_blockers.append(True)
            # the pinned WAIT entries are granted once the blocker
            # releases, and the grant timer passes them along

        os_.spawn(blocker)
        os_.spawn(base_reader)
        os_.spawn(overflowing_reader)
        os_.run_all(max_cycles=100_000_000)
        tracker.assert_clean()
        assert observed and observed[0] >= 1, (
            f"expected an overflow-mode grant, saw reader_cnt={observed}"
        )
        assert lrt.stats["overflow_grants"] >= 1
        m.drain()
        drain_and_check(m)

    def test_writer_waits_for_overflow_readers(self, m):
        """A writer granted while overflow readers hold must be held back
        until reader_cnt drains (the OvfCheck/OvfClear handshake)."""
        os_ = OS(m)
        hot = m.alloc.alloc_line()
        extra = [m.alloc.alloc_line() for _ in range(2)]
        tracker = RWTracker()

        def base_reader(thread):
            yield from api.lock(hot, False)
            tracker.enter(False)
            yield ops.Compute(2_000)
            tracker.exit(False)
            yield from api.unlock(hot, False)

        def overflowing_reader(thread):
            for a in extra:
                yield from api.lock(a, True)
            yield ops.Compute(300)
            yield from api.lock(hot, False)
            tracker.enter(False)
            yield ops.Compute(6_000)   # holds long after base reader
            tracker.exit(False)
            yield from api.unlock(hot, False)
            for a in reversed(extra):
                yield from api.unlock(a, True)

        def writer(thread):
            yield ops.Compute(1_000)
            yield from api.lock(hot, True)
            tracker.enter(True)   # tracker asserts no readers inside
            yield ops.Compute(100)
            tracker.exit(True)
            yield from api.unlock(hot, True)

        os_.spawn(base_reader)
        os_.spawn(overflowing_reader)
        os_.spawn(writer)
        os_.run_all(max_cycles=100_000_000)
        tracker.assert_clean()
        drain_and_check(m)


class TestReservation:
    def test_nonblocking_writer_eventually_wins(self, m):
        """A nonblocking entry contending for a popular lock must acquire
        it via the reservation (starvation freedom, paper III-D)."""
        os_ = OS(m)
        hot = m.alloc.alloc_line()
        extra = [m.alloc.alloc_line() for _ in range(2)]
        tracker = RWTracker()
        starved_done = []
        release_blockers = []

        def blocker(thread):
            for a in extra:
                yield from api.lock(a, True)
            while not release_blockers:
                yield ops.Compute(500)
            for a in reversed(extra):
                yield from api.unlock(a, True)

        def churner(thread):
            yield ops.Compute(100)
            for _ in range(60):
                if starved_done:
                    return
                yield from api.lock(hot, True)
                tracker.enter(True)
                yield ops.Compute(300)
                tracker.exit(True)
                yield from api.unlock(hot, True)
                yield ops.Compute(50)

        def starved(thread):
            yield ops.Compute(400)  # blocker holds the extra locks now
            # pin this core's ordinary entries as queue nodes
            for a in extra:
                yield ops.LcuAcq(a, True)
            yield from api.lock(hot, True)     # via nonblocking entry
            tracker.enter(True)
            starved_done.append(m.sim.now)
            tracker.exit(True)
            yield from api.unlock(hot, True)
            release_blockers.append(True)

        os_.spawn(blocker)
        os_.spawn(churner)
        os_.spawn(churner)
        os_.spawn(starved)
        os_.run_all(max_cycles=100_000_000)
        tracker.assert_clean()
        assert starved_done, "nonblocking requestor starved"
        lrt = m.lrts[m.mem.home_of(hot)]
        assert lrt.stats["reservations"] >= 1
        m.drain()
        drain_and_check(m)

    def test_reservation_times_out_when_abandoned(self):
        """A reservation left by an expired trylock must expire and free
        the lock for everyone else."""
        mm = Machine(small_test_model(
            lcu_ordinary_entries=2, lrt_reservation_timeout=3_000,
        ))
        os_ = OS(mm)
        hot = mm.alloc.alloc_line()
        extra = [mm.alloc.alloc_line() for _ in range(2)]
        later_done = []

        def holder(thread):
            yield from api.lock(hot, True)
            yield ops.Compute(5_000)
            yield from api.unlock(hot, True)

        def trylocker(thread):
            for a in extra:
                yield from api.lock(a, True)
            yield ops.Compute(200)
            ok = yield from api.trylock(hot, True, retries=2)
            assert not ok
            # abandons; reservation may remain until timeout
            for a in reversed(extra):
                yield from api.unlock(a, True)

        def late_comer(thread):
            yield ops.Compute(6_000)
            yield from api.lock(hot, True)
            later_done.append(True)
            yield from api.unlock(hot, True)

        os_.spawn(holder)
        os_.spawn(trylocker)
        os_.spawn(late_comer)
        os_.run_all(max_cycles=100_000_000)
        assert later_done
        drain_and_check(mm)


    def test_reservation_outlives_a_draining_queue(self):
        """The reservation must not time out while the queue ahead of
        the nonblocking requestor is still draining: a later ordinary
        request is refused, not enqueued ahead of it."""
        mm = Machine(small_test_model(
            lcu_ordinary_entries=2, lrt_reservation_timeout=2_000,
        ))
        os_ = OS(mm)
        hot = mm.alloc.alloc_line()
        extra = [mm.alloc.alloc_line() for _ in range(2)]
        order = []
        release_blockers = []

        def holder(thread):
            yield from api.lock(hot, True)
            yield ops.Compute(10_000)     # far past the reservation timeout
            yield from api.unlock(hot, True)

        def blocker(thread):
            for a in extra:
                yield from api.lock(a, True)
            while not release_blockers:
                yield ops.Compute(500)
            for a in reversed(extra):
                yield from api.unlock(a, True)

        def starved(thread):
            yield ops.Compute(400)  # blocker holds the extra locks now
            for a in extra:         # pin this core's ordinary entries
                yield ops.LcuAcq(a, True)
            ok = yield ops.LcuAcq(hot, True)   # nonblocking: reserves
            assert not ok
            yield ops.Compute(4_000)
            yield from api.lock(hot, True)
            order.append("starved")
            yield from api.unlock(hot, True)
            release_blockers.append(True)

        def late_comer(thread):
            yield ops.Compute(3_500)   # after the timeout, lock still held
            yield from api.lock(hot, True)
            order.append("late")
            yield from api.unlock(hot, True)

        os_.spawn(holder)
        os_.spawn(blocker)
        os_.spawn(starved)
        os_.spawn(late_comer)
        os_.run_all(max_cycles=100_000_000)
        assert order == ["starved", "late"]
        lrt = mm.lrts[mm.mem.home_of(hot)]
        assert lrt.stats["reservations"] >= 1
        mm.drain()
        drain_and_check(mm)


class TestLrtOverflow:
    def test_spill_and_refill(self):
        """More simultaneously-held locks than one LRT set holds: entries
        spill to the memory hash table and come back (paper III-E)."""
        mm = Machine(small_test_model(lrt_entries=4, lrt_assoc=2, num_lrts=1,
                                      lcu_ordinary_entries=16))
        os_ = OS(mm)
        # all map to LRT 0 (num_lrts=1); same set via stride
        addrs = [mm.alloc.alloc_line() for _ in range(8)]
        done = []

        def prog(thread):
            for a in addrs:
                yield from api.lock(a, True)
            yield ops.Compute(100)
            for a in addrs:               # touch them again: refills
                yield from api.unlock(a, True)
            done.append(True)

        os_.spawn(prog)
        os_.run_all(max_cycles=100_000_000)
        assert done
        mm.drain()
        lrt = mm.lrts[0]
        assert lrt.stats["evictions"] > 0, "no LRT spill happened"
        assert lrt.stats["refills"] > 0, "no LRT refill happened"
        # spill traffic must consume memory-controller bandwidth
        dir_busy = mm.mem._dir_servers[0].busy_cycles
        assert dir_busy >= (
            lrt.stats["evictions"] + lrt.stats["refills"]
        ) * mm.config.local_mem_latency
        drain_and_check(mm)

    def test_overflowed_lock_still_functional(self):
        """A lock whose LRT entry lives in the overflow table must still
        queue and transfer correctly."""
        mm = Machine(small_test_model(lrt_entries=2, lrt_assoc=1, num_lrts=1,
                                      lcu_ordinary_entries=16))
        os_ = OS(mm)
        addrs = [mm.alloc.alloc_line() for _ in range(6)]
        trackers = {a: RWTracker() for a in addrs}
        done = [0]

        def prog(thread):
            for _ in range(4):
                for a in addrs:
                    yield from api.lock(a, True)
                    trackers[a].enter(True)
                    yield ops.Compute(40)
                    trackers[a].exit(True)
                    yield from api.unlock(a, True)
            done[0] += 1

        for _ in range(3):
            os_.spawn(prog)
        os_.run_all(max_cycles=200_000_000)
        for t in trackers.values():
            t.assert_clean()
        assert done[0] == 3
        drain_and_check(mm)
