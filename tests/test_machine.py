"""Machine assembly and cross-unit wiring tests."""

import pytest

from repro import Machine, OS, model_a, model_b, small_test_model
from repro.cpu import ops
from repro.lcu import api
from repro.lcu.lcu import ProtocolError


class TestAssembly:
    def test_model_a_machine_builds(self):
        m = Machine(model_a())
        assert len(m.lcus) == 32
        assert len(m.lrts) == 32
        assert m.config.cores == 32

    def test_model_b_machine_builds(self):
        m = Machine(model_b())
        assert len(m.lcus) == 32
        assert len(m.lrts) == 8

    def test_endpoints_registered(self):
        m = Machine(small_test_model())
        endpoints = [("core", i) for i in range(m.config.cores)]
        for j in range(m.config.num_lrts):
            endpoints += [("dir", j), ("lrt", j), ("ssb", j)]
        for ep in endpoints:
            with pytest.raises(ValueError, match="already registered"):
                m.net.register(ep, lambda src, payload: None)

    def test_mc_units_spread_over_chips(self):
        m = Machine(model_b())
        chips = {m._chip_of(("lrt", j)) for j in range(8)}
        assert chips == {0, 1, 2, 3}

    def test_unexpected_payload_is_loud(self):
        m = Machine(small_test_model())
        m.net.send(("core", 0), ("core", 1), "garbage")
        with pytest.raises(ProtocolError):
            m.sim.run()


class TestCrossUnitIntegration:
    def test_lock_home_matches_memory_home(self):
        """The LRT that owns a lock is the one at the address's home
        memory controller."""
        m = Machine(small_test_model())
        os_ = OS(m)
        addr = m.alloc.alloc_line()
        home = m.mem.home_of(addr)
        observed = []

        def prog(thread):
            yield from api.lock(addr, True)
            observed.append(
                [j for j, lrt in enumerate(m.lrts) if lrt.entry(addr)]
            )
            yield from api.unlock(addr, True)

        os_.spawn(prog)
        os_.run_all()
        assert observed == [[home]]

    def test_coherence_and_locks_share_network(self):
        """Memory traffic and lock traffic both count against the same
        message totals (they contend on the same links)."""
        m = Machine(small_test_model())
        os_ = OS(m)
        addr = m.alloc.alloc_line()
        data = m.alloc.alloc_line()

        def prog(thread):
            yield from api.lock(addr, True)
            yield ops.Store(data, 1)
            yield from api.unlock(addr, True)

        before = m.net.messages_sent
        os_.spawn(prog)
        os_.run_all()
        m.drain()  # let the release ack land
        # request+grant (lock), release+ack, plus coherence miss+fill
        assert m.net.messages_sent - before >= 6

    def test_mixed_hardware_in_one_run(self):
        """LCU locks, SSB locks and plain atomics coexist."""
        m = Machine(small_test_model())
        os_ = OS(m)
        lcu_lock = m.alloc.alloc_line()
        ssb_lock = m.alloc.alloc_line()
        counter = m.alloc.alloc_line()

        def prog(thread):
            for _ in range(5):
                yield from api.lock(lcu_lock, True)
                yield ops.Rmw(counter, lambda v: v + 1)
                yield from api.unlock(lcu_lock, True)
                ok = False
                while not ok:
                    ok = yield ops.SsbAcq(ssb_lock, True)
                    if not ok:
                        yield ops.Compute(50)
                yield ops.Rmw(counter, lambda v: v + 1)
                yield ops.SsbRel(ssb_lock, True)

        for _ in range(3):
            os_.spawn(prog)
        os_.run_all(max_cycles=50_000_000)
        assert m.mem.peek(counter) == 30

    def test_drain_is_bounded(self):
        """drain() must not advance the clock to parked far-future
        events (stale slice timers)."""
        m = Machine(small_test_model())
        os_ = OS(m, quantum=10**9)

        def prog(thread):
            yield ops.Compute(10)

        os_.spawn(prog)
        os_.run_all()
        t = m.sim.now
        m.drain()
        assert m.sim.now <= t + 200_000
