"""STM ablations: contention-manager policy and irrevocability cost.

DESIGN.md calls out the STM's retry policy and the irrevocability token
as design choices; these benches quantify both.
"""

import random

from repro import Machine, OS, model_a
from repro.cpu import ops
from repro.stm.core import ObjectSTM


def _counter_storm(stm, machine, threads=8, incs=12):
    """High-conflict workload: everyone increments one counter."""
    counter = stm.alloc(0)
    os_ = OS(machine)

    def prog(thread):
        rng = random.Random(thread.tid)
        for _ in range(incs):
            def body(tx):
                v = yield from tx.read(counter)
                yield ops.Compute(25)
                yield from tx.write(counter, v + 1)

            yield from stm.run(thread, body)
            yield ops.Compute(rng.randint(1, 20))

    for _ in range(threads):
        os_.spawn(prog)
    elapsed = os_.run_all(max_cycles=5_000_000_000)
    assert counter.value == threads * incs
    return elapsed


def test_contention_manager_policies():
    out = {}
    for policy in ("none", "linear", "exponential"):
        machine = Machine(model_a())
        stm = ObjectSTM(machine, "lcu", backoff=policy)
        elapsed = _counter_storm(stm, machine)
        out[policy] = {
            "cycles": elapsed,
            "abort_rate": round(stm.stats.abort_rate, 3),
        }
    print()
    for policy, d in out.items():
        print(f"  {policy:12s}: {d['cycles']:8d} cycles, "
              f"abort rate {d['abort_rate']:.1%}")
    # backing off must cut the abort rate versus immediate retry
    assert out["exponential"]["abort_rate"] < out["none"]["abort_rate"]


def test_irrevocability_token_cost():
    """The read-mode token every regular commit takes when irrevocable
    support is enabled must cost little when no irrevocable transaction
    runs (read sharing keeps it cheap)."""
    out = {}
    for support in (False, True):
        machine = Machine(model_a())
        stm = ObjectSTM(machine, "lcu", irrevocable_support=support)
        out["with_token" if support else "baseline"] = _counter_storm(
            stm, machine, threads=6
        )
    print(f"\nirrevocability token overhead: {out}")
    assert out["with_token"] < 1.6 * out["baseline"], out
