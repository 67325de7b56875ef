"""Ablations of LCU design choices called out in DESIGN.md.

* Grant timeout: too small forwards grants before threads can collect
  them (wasted handoffs); too large stalls the queue behind preempted
  threads.  The default must sit in the efficient basin.
* LCU entry count: the paper uses 8 ordinary entries (model A); this
  ablation confirms the microbenchmark is insensitive to more entries
  and survives fewer (nonblocking fallback).
* Direct transfer: disabling the queue by bouncing every handoff off the
  LRT is approximated by the SSB; the gap measures the value of
  LCU-to-LCU grants.
"""

from repro.harness.microbench import run_microbench
from repro.params import model_a


def test_grant_timeout_sweep():
    """The grant timer's value trades lock idle time against wasted
    handoffs: with threads oversubscribed, every grant that lands on a
    descheduled thread's entry idles the lock for up to the timeout, so
    large timeouts re-create the queue-lock preemption anomaly for the
    LCU itself.  (Scaled-down machine so the pathological points stay
    affordable to simulate.)"""
    from repro.params import small_test_model

    out = {}
    for timeout in (100, 500, 5_000):
        cfg = small_test_model(
            lcu_grant_timeout=timeout, timeslice=3_000,
        )
        # 12 threads on 4 cores: heavy preemption while spinning
        r = run_microbench(cfg, "lcu", threads=12,
                           write_pct=100, iters_per_thread=40)
        out[timeout] = r.cycles_per_cs
    print("\ncycles/CS by grant timeout:", out)
    # a long timer must hurt under preemption (queue stalls behind
    # absent threads); the short timer must stay close to the default
    assert out[5_000] > 1.5 * out[500], out
    assert out[100] < 1.5 * out[500], out


def test_lcu_entry_count_sweep():
    out = {}
    for entries in (2, 8, 32):
        cfg = model_a(lcu_ordinary_entries=entries)
        r = run_microbench(cfg, "lcu", threads=16,
                           write_pct=100, iters_per_thread=80)
        out[entries] = r.cycles_per_cs
    print("\ncycles/CS by LCU entries:", out)
    # single-lock microbenchmark uses one entry per LCU at a time: the
    # entry count must not matter (within noise)
    assert max(out.values()) < 1.3 * min(out.values())


def test_enqueue_prefetch():
    """Footnote 1 of the paper: an Enqueue primitive used as a lock
    prefetch.  Issuing ``enq`` before the compute that precedes the
    critical section overlaps the request round trip, so the eventual
    ``lock`` finds the grant already local."""
    from repro import Machine, OS
    from repro.cpu import ops
    from repro.lcu import api

    out = {}
    for prefetch in (False, True):
        m = Machine(model_a())
        os_ = OS(m)
        locks = [m.alloc.alloc_line() for _ in range(40)]
        lat = []

        def prog(thread):
            for a in locks:
                if prefetch:
                    yield from api.enqueue(a, True)
                yield ops.Compute(300)   # pre-CS work, overlaps req
                t0 = m.sim.now
                yield from api.lock(a, True)
                lat.append(m.sim.now - t0)
                yield ops.Compute(20)
                yield from api.unlock(a, True)

        os_.spawn(prog)
        os_.run_all(max_cycles=100_000_000)
        out["prefetch" if prefetch else "baseline"] = (
            sum(lat) / len(lat)
        )
    print("\nacquire latency (cycles):", out)
    # the prefetch must hide nearly the whole request round trip
    assert out["prefetch"] < 0.3 * out["baseline"], out


def test_direct_transfer_value():
    lcu = run_microbench(model_a(), "lcu", threads=16, write_pct=100,
                         iters_per_thread=80).cycles_per_cs
    ssb = run_microbench(model_a(), "ssb", threads=16, write_pct=100,
                         iters_per_thread=80).cycles_per_cs
    print(f"\ndirect transfer (lcu) {lcu:.1f} vs remote retry (ssb) {ssb:.1f}")
    assert lcu < ssb
