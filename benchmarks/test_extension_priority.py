"""Extension bench: real-time priority windows (paper future work §V).

A periodic "real-time" thread acquires a contended lock with
``priority=True``: the LRT opens a bounded window during which ordinary
requestors are deferred, so the RT thread's acquire latency collapses to
roughly the current holder's residual critical section.  The cost — a
bounded slowdown of the ordinary class — is also measured.
"""

from repro import Machine, OS, model_a
from repro.cpu import ops
from repro.lcu import api
from repro.sim.stats import Accumulator


def _run(priority: bool, churners: int = 8, rounds: int = 15):
    machine = Machine(model_a())
    os_ = OS(machine)
    addr = machine.alloc.alloc_line()
    rt_lat = Accumulator()
    ordinary_cs = [0]
    stop = []

    def churner(thread):
        while not stop:
            yield from api.lock(addr, True)
            yield ops.Compute(150)
            ordinary_cs[0] += 1
            yield from api.unlock(addr, True)
            yield ops.Compute(20)

    def rt_task(thread):
        yield ops.Compute(2_000)   # let contention build first
        for _ in range(rounds):
            t0 = machine.sim.now
            yield from api.lock(addr, True, priority=priority)
            rt_lat.add(machine.sim.now - t0)
            yield ops.Compute(60)
            yield from api.unlock(addr, True)
            yield ops.Compute(600)  # the task's period
        stop.append(True)

    for _ in range(churners):
        os_.spawn(churner)
    os_.spawn(rt_task)
    elapsed = os_.run_all(max_cycles=1_000_000_000)
    return rt_lat, ordinary_cs[0], elapsed


def test_priority_window_latency():
    base_lat, base_cs, base_t = _run(False)
    prio_lat, prio_cs, prio_t = _run(True)
    out = {
        "rt_wait_normal": base_lat.mean,
        "rt_wait_priority": prio_lat.mean,
        "rt_worst_normal": base_lat.max,
        "rt_worst_priority": prio_lat.max,
        "ordinary_throughput_ratio": (prio_cs / prio_t) / (base_cs / base_t),
    }
    print()
    for k, v in out.items():
        print(f"  {k}: {v:.2f}")
    # the priority window must cut both mean and worst-case RT wait
    assert out["rt_wait_priority"] < 0.6 * out["rt_wait_normal"]
    assert out["rt_worst_priority"] <= out["rt_worst_normal"]
    # and the ordinary class keeps making progress (bounded cost)
    assert out["ordinary_throughput_ratio"] > 0.4
