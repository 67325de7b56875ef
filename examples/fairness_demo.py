#!/usr/bin/env python3
"""Writer starvation demo: fair LCU queueing vs SSB reader preference.

A handful of writers compete with a flood of readers on one RW lock.
With the SSB, readers join any active read run, so the lock can stay in
read mode indefinitely and writers starve (the unfairness the paper
calls out).  The LCU's distributed FIFO queue guarantees every writer is
serviced — while still letting consecutive readers share.

The measurement side is the :class:`repro.obs.FairnessObservatory`: it
rides the lock events on the probe bus, so the demo gets the overtake ledger
(who overtook whom, by mode), per-mode wait percentiles, the writer
share and the starvation watchdog for free — and, being passive, it
leaves the simulated cycle counts untouched.
"""

import argparse

from repro import Machine, OS, model_a
from repro.cpu import ops
from repro.locks import get_algorithm
from repro.obs import FairnessObservatory


def run(lock_name: str, readers: int, writers: int, duration: int,
        starvation_bound: int):
    machine = Machine(model_a())
    os_ = OS(machine)
    algo = get_algorithm(lock_name)(machine)
    handle = algo.make_lock()

    obs = FairnessObservatory(starvation_bound=starvation_bound)
    obs.attach_machine(machine)

    def worker(write):
        def body(thread):
            while machine.sim.now < duration:
                yield from algo.acquire(thread, handle, write)
                yield ops.Compute(80)
                yield from algo.release(thread, handle, write)
                yield ops.Compute(10)
        return body

    for _ in range(readers):
        os_.spawn(worker(False))
    for _ in range(writers):
        os_.spawn(worker(True))
    os_.run_all()
    obs.detach()
    return obs.lock_summary(algo.lock_id(handle))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--readers", type=int, default=12)
    parser.add_argument("--writers", type=int, default=4)
    parser.add_argument("--duration", type=int, default=150_000)
    parser.add_argument("--starvation-bound", type=int, default=25_000,
                        help="watchdog alert threshold (cycles waited)")
    args = parser.parse_args()

    print(f"{args.readers} readers vs {args.writers} writers, "
          f"{args.duration} cycles\n")
    for lock in ("lcu", "ssb"):
        s = run(lock, args.readers, args.writers, args.duration,
                args.starvation_bound)
        grants = s["grants"]
        total = grants["read"] + grants["write"]
        w_wait = s["wait"]["write"]
        print(f"{lock:4s}: readers {grants['read']:5d}  "
              f"writers {grants['write']:4d}  "
              f"(writer share {s['writer_share']:5.1%})  "
              f"writer wait p99 {w_wait['p99']:.0f} cyc, "
              f"max {w_wait['max']:.0f} cyc")
        ot = s["overtakes"]
        print(f"      overtakes: {ot['total']} total "
              f"(worst single waiter {ot['max']}, "
              f"reader-batch exempt {ot['exempted']}); "
              f"by mode r-by-r={ot['by_mode']['reader_by_reader']} "
              f"w-by-r={ot['by_mode']['writer_by_reader']} "
              f"w-by-w={ot['by_mode']['writer_by_writer']}")
        alerts = s["starvation"]["alerts"]
        if alerts:
            worst = s["starvation"]["alerts_detail"][0]
            print(f"      STARVATION: {alerts} alert(s); first: tid "
                  f"{worst['tid']} ({'writer' if worst['write'] else 'reader'}) "
                  f"waited {worst['waited']} cyc at t={worst['t']}")
        else:
            print(f"      no starvation alerts "
                  f"(bound {args.starvation_bound} cyc)")


if __name__ == "__main__":
    main()
