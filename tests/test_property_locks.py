"""Property-based protocol tests: random workloads must always satisfy
reader-writer exclusion, completion, and leak-freedom.

These drive the full LCU/LRT protocol (and, more cheaply, the software
locks) through randomized schedules — thread counts above core counts,
random lock sets, random read/write mixes, trylocks, tiny grant timeouts —
and assert the invariants that define a correct fair RW lock.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, OS, small_test_model
from repro.check.invariants import InvariantMonitor
from repro.cpu import ops
from repro.lcu import api
from repro.locks import get_algorithm
from tests.conftest import RWTracker, drain_and_check

_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workload(draw):
    return dict(
        seed=draw(st.integers(0, 2**16)),
        nthreads=draw(st.integers(2, 10)),
        nlocks=draw(st.integers(1, 4)),
        iters=draw(st.integers(3, 12)),
        write_ratio=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        quantum=draw(st.sampled_from([1_500, 4_000, 10**9])),
        grant_timeout=draw(st.sampled_from([200, 500, 2_000])),
        use_trylock=draw(st.booleans()),
    )


# Cycle cap of one drawn LCU workload.  Correct draws finish in well
# under 200k cycles; a livelock fails within seconds instead of running
# for an hour of host time.
_LCU_MAX_CYCLES = 20_000_000


def run_lcu_workload(p, max_cycles=_LCU_MAX_CYCLES):
    cfg = small_test_model(lcu_grant_timeout=p["grant_timeout"])
    m = Machine(cfg)
    os_ = OS(m, quantum=p["quantum"])
    locks = [m.alloc.alloc_line() for _ in range(p["nlocks"])]
    trackers = {a: RWTracker() for a in locks}
    completed = [0]
    # continuous structural auditing (queue shape, head token, orphans)
    # while the randomized schedule runs — the production monitor, not a
    # test-only reimplementation
    monitor = InvariantMonitor(m).attach()

    def factory(i):
        def prog(thread):
            rng = random.Random(p["seed"] * 31 + i)
            for _ in range(p["iters"]):
                a = rng.choice(locks)
                write = rng.random() < p["write_ratio"]
                if p["use_trylock"] and rng.random() < 0.3:
                    ok = yield from api.trylock(a, write,
                                                retries=rng.randint(1, 5))
                    if not ok:
                        yield ops.Compute(rng.randint(1, 40))
                        continue
                else:
                    yield from api.lock(a, write)
                trackers[a].enter(write)
                yield ops.Compute(rng.randint(1, 100))
                trackers[a].exit(write)
                yield from api.unlock(a, write)
            completed[0] += 1
        return prog

    for i in range(p["nthreads"]):
        os_.spawn(factory(i))
    os_.run_all(max_cycles=max_cycles)
    monitor.detach()
    return m, trackers, completed[0]


class TestLcuProperties:
    @settings(**_SETTINGS)
    @given(workload())
    def test_rw_exclusion_and_completion(self, p):
        m, trackers, completed = run_lcu_workload(p)
        for t in trackers.values():
            t.assert_clean()
        assert completed == p["nthreads"]

    @settings(**_SETTINGS)
    @given(workload())
    def test_no_leaked_hardware_state(self, p):
        m, _trackers, _ = run_lcu_workload(p)
        drain_and_check(m)

    @settings(**_SETTINGS)
    @given(workload())
    def test_cs_counts_conserved(self, p):
        """Total CS entries equals total exits equals per-lock sums."""
        m, trackers, _ = run_lcu_workload(p)
        for t in trackers.values():
            assert t.readers == 0 and t.writers == 0


def test_migration_reservation_livelock_finishes():
    """A draw that used to livelock: nine writers on four cores with a
    short quantum migrate so often that the Head token keeps timing out
    past nodes whose thread runs elsewhere.  Entry exhaustion sends the
    migrated threads to the nonblocking path, and the reservation meant
    to drain the queue for them used to expire mid-drain, letting fresh
    requests rejoin the tail; the run never finished.  Held until the
    queue drains, the reservation lets the run complete quickly."""
    p = {"seed": 3508, "nthreads": 9, "nlocks": 1, "iters": 12,
         "write_ratio": 1.0, "quantum": 1_500, "grant_timeout": 500,
         "use_trylock": False}
    m, trackers, completed = run_lcu_workload(p, max_cycles=500_000)
    for t in trackers.values():
        t.assert_clean()
    assert completed == p["nthreads"]
    assert sum(lrt.stats["reservations"] for lrt in m.lrts) > 0
    drain_and_check(m)


class TestSoftwareLockProperties:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**16),
        nthreads=st.integers(2, 8),
        name=st.sampled_from(["tas", "tatas", "ticket", "mcs", "pthread"]),
        quantum=st.sampled_from([2_000, 10**9]),
    )
    def test_mutex_invariants(self, seed, nthreads, name, quantum):
        # exclusion is checked by the production monitor observing the
        # lock through the base-class acquire/release wrappers
        m = Machine(small_test_model())
        os_ = OS(m, quantum=quantum)
        algo = get_algorithm(name)(m)
        h = algo.make_lock()
        monitor = InvariantMonitor(m, algo).attach()

        def factory(i):
            def prog(thread):
                rng = random.Random(seed * 13 + i)
                for _ in range(6):
                    yield from algo.acquire(thread, h, True)
                    yield ops.Compute(rng.randint(1, 80))
                    yield from algo.release(thread, h, True)
            return prog

        for i in range(nthreads):
            os_.spawn(factory(i))
        os_.run_all(max_cycles=1_000_000_000)
        monitor.finish()
        monitor.detach()
        tracker = monitor.trackers[h]
        tracker.assert_clean()
        assert tracker.total == nthreads * 6

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**16),
        nthreads=st.integers(2, 8),
        name=st.sampled_from(["mrsw", "ssb"]),
        write_ratio=st.sampled_from([0.2, 0.6]),
    )
    def test_rw_invariants(self, seed, nthreads, name, write_ratio):
        m = Machine(small_test_model())
        os_ = OS(m)
        algo = get_algorithm(name)(m)
        h = algo.make_lock()
        monitor = InvariantMonitor(m, algo).attach()

        def factory(i):
            def prog(thread):
                rng = random.Random(seed * 17 + i)
                for _ in range(6):
                    write = rng.random() < write_ratio
                    yield from algo.acquire(thread, h, write)
                    yield ops.Compute(rng.randint(1, 80))
                    yield from algo.release(thread, h, write)
            return prog

        for i in range(nthreads):
            os_.spawn(factory(i))
        os_.run_all(max_cycles=1_000_000_000)
        monitor.finish()
        monitor.detach()
        tracker = monitor.trackers[h]
        tracker.assert_clean()
        assert tracker.total == nthreads * 6
