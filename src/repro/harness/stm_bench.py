"""STM data-structure benchmarks (paper Section IV-B, Figures 11 & 12).

Multiple threads run transactions against one shared structure:
75% read-only lookups, 25% updates (half inserts, half removes) by
default — the paper's mix.  Reported: mean transaction time and its
dissection into application phase vs commit phase (Figure 11's stacked
bars), plus abort rates.

Structures are pre-populated to ``initial_size`` with even keys from a
``2 * initial_size`` key range, so inserts (random keys) and removes
stay balanced around 50% occupancy.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict

from repro.cpu import ops
from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.obs.instrument import attach_machine_metrics, finish_run
from repro.params import MachineConfig
from repro.stm.core import ObjectSTM
from repro.stm.direct import populate
from repro.stm.structures.hashtable import HashTable
from repro.stm.structures.rbtree import RBTree
from repro.stm.structures.skiplist import SkipList

STRUCTURES = {
    "rb": RBTree,
    "skip": SkipList,
    "hash": HashTable,
}


@dataclasses.dataclass
class StmBenchResult:
    variant: str
    structure: str
    model: str
    threads: int
    txns: int
    elapsed: int
    txn_cycles: float            # mean wall cycles per committed txn
    app_cycles: float            # dissection: application phase
    commit_cycles: float         # dissection: commit phase
    abort_rate: float
    abort_reasons: Dict[str, int] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"{self.variant}/{self.structure} model {self.model} "
            f"t={self.threads}: {self.txn_cycles:.0f} cyc/txn "
            f"(app {self.app_cycles:.0f} + commit {self.commit_cycles:.0f}, "
            f"abort {self.abort_rate:.0%})"
        )


def run_stm_bench(
    config: MachineConfig,
    variant: str,
    structure: str = "rb",
    threads: int = 4,
    initial_size: int = 256,
    read_pct: int = 75,
    txns_per_thread: int = 40,
    seed: int = 1,
    max_cycles: int = 20_000_000_000,
    registry=None,
    tracer=None,
    sample_interval: int = 0,
) -> StmBenchResult:
    """Run one STM benchmark configuration and return its result.

    ``registry`` / ``tracer`` enable telemetry (machine counters, STM
    abort breakdown, per-thread transaction spans).  Both are off by
    default and cost nothing when absent."""
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    machine = Machine(config)
    stm = ObjectSTM(machine, variant)
    if registry is not None:
        attach_machine_metrics(machine, registry, sample_interval)
    if tracer is not None:
        tracer.attach(machine)
    if structure == "hash":
        struct = HashTable(stm, buckets=max(16, initial_size // 4))
    else:
        struct = STRUCTURES[structure](stm)
    key_range = 2 * initial_size
    populate(stm, struct, range(0, key_range, 2))

    os_ = OS(machine)
    committed = [0]

    def worker_factory(index: int):
        def worker(thread):
            rng = random.Random(seed * 50_021 + index)
            track = f"thread {index}"
            for _ in range(txns_per_thread):
                r = rng.random() * 100
                key = rng.randrange(key_range)
                if r < read_pct:
                    body = lambda tx, k=key: struct.contains(tx, k)  # noqa: E731
                    op = "lookup"
                elif r < read_pct + (100 - read_pct) / 2:
                    body = lambda tx, k=key: struct.insert(tx, k)  # noqa: E731
                    op = "insert"
                else:
                    body = lambda tx, k=key: struct.remove(tx, k)  # noqa: E731
                    op = "remove"
                if tracer is not None:
                    sid = tracer.begin("txn", cat="stm", track=track, op=op)
                yield from stm.run(thread, body)
                if tracer is not None:
                    tracer.end(sid)
                committed[0] += 1
                yield ops.Compute(rng.randint(1, 30))

        return worker

    for i in range(threads):
        os_.spawn(worker_factory(i))
    elapsed = os_.run_all(max_cycles=max_cycles)
    if registry is not None:
        # stop the sample tick so drain() can actually drain
        registry.sample(machine.sim.now)
        registry.stop_sampling()
    machine.drain()

    txns = committed[0]
    s = stm.stats
    if registry is not None:
        registry.counter("bench.txns").inc(txns)
    finish_run(machine, registry, tracer, stm=stm)
    return StmBenchResult(
        variant=variant,
        structure=structure,
        model=config.name,
        threads=threads,
        txns=txns,
        elapsed=elapsed,
        txn_cycles=elapsed * threads / txns if txns else float("inf"),
        app_cycles=s.app_cycles / max(1, s.commits),
        commit_cycles=s.commit_cycles / max(1, s.commits),
        abort_rate=s.abort_rate,
        abort_reasons=dict(s.abort_reasons),
    )
