"""The benchmark's workloads as seeded lists of cells.

A *cell* is one closed-loop, fixed-work simulation: every simulated
thread runs a fixed number of critical sections, so a cell does the same
simulated work however fast the host is.  This module only describes
cells; ``child.py`` runs them.  It imports nothing from ``repro`` so the
parent process stays light.
"""

from __future__ import annotations

import dataclasses
from typing import List

WORKLOADS = ("lcu_rw", "swlock_rw", "nemesis", "observed")

MODELS = ("A", "B")
THREADS = 16
LCU_WRITE_PCTS = (25, 100)
LCU_ITERS = 15
LCU_SEEDS = 11
SW_LOCKS = ("mcs", "mrsw")
SW_WRITE_PCT = 25
SW_ITERS = 10
SW_SEEDS = 10
#: observed cells per lock family (lcu at 25% writes, mrsw)
OBSERVED_PER_FAMILY = 12
NEMESIS_ALGOS = ("lcu", "lcu_fb")
NEMESIS_FAULTS = (
    "drop", "crash_core", "partition_links", "zombie_core", "evict",
)

#: nemesis matrix seeds were checked in [0, VETTED_MATRIX_SEEDS)
VETTED_MATRIX_SEEDS = 100
#: the vetted matrix seeds on which every one of the 20 nemesis cells
#: ends ``recovered`` or ``degraded``.  Each other vetted seed has at
#: least one ``violated`` cell (README.md, "Known failures"), and a
#: benchmark input must not fail.
CLEAN_MATRIX_SEEDS = (
    0, 2, 3, 4, 6, 10, 12, 13, 16, 17, 23, 24, 26, 30, 35, 37, 41, 42,
    43, 44, 45, 51, 53, 56, 58, 59, 63, 66, 69, 71, 72, 73, 76, 80, 82,
    86, 87, 88, 91, 93, 94, 95, 98,
)


@dataclasses.dataclass(frozen=True)
class Cell:
    """One simulation.  ``fault`` is empty for a microbenchmark cell and
    names the fault class for a nemesis cell, whose ``seed`` is then the
    matrix seed.  ``observed`` attaches every ``repro.obs`` sink."""

    lock: str
    model: str
    seed: int
    write_pct: int = 0
    iters: int = 0
    fault: str = ""
    observed: bool = False

    @property
    def key(self) -> str:
        """Names the simulation; an observed cell shares the key of the
        unobserved cell it must match cycle for cycle."""
        if self.fault:
            return f"{self.lock}/{self.model}/{self.fault}/m{self.seed}"
        return (f"{self.lock}/{self.model}/w{self.write_pct}"
                f"/i{self.iters}/s{self.seed}")


def _seeds(seed: int, n: int) -> List[int]:
    return [seed * 1000 + k + 1 for k in range(n)]


def lcu_rw(seed: int) -> List[Cell]:
    return [
        Cell("lcu", model, s, write_pct, LCU_ITERS)
        for s in _seeds(seed, LCU_SEEDS)
        for model in MODELS
        for write_pct in LCU_WRITE_PCTS
    ]


def swlock_rw(seed: int) -> List[Cell]:
    return [
        Cell(lock, model, s, SW_WRITE_PCT, SW_ITERS)
        for s in _seeds(seed, SW_SEEDS)
        for lock in SW_LOCKS
        for model in MODELS
    ]


def nemesis_matrix_seed(seed: int) -> int:
    """The matrix seed equals the benchmark seed when that is clean;
    otherwise it is the next clean one, wrapping within the vetted
    range.  Fixing a known failure only adds clean seeds, which moves
    no seed that was clean before."""
    s = seed % VETTED_MATRIX_SEEDS
    return next((c for c in CLEAN_MATRIX_SEEDS if c >= s),
                CLEAN_MATRIX_SEEDS[0])


def nemesis(seed: int) -> List[Cell]:
    matrix_seed = nemesis_matrix_seed(seed)
    return [
        Cell(algo, model, matrix_seed, fault=fault)
        for model in MODELS
        for algo in NEMESIS_ALGOS
        for fault in NEMESIS_FAULTS
    ]


def observed(seed: int) -> List[Cell]:
    lcu = [c for c in lcu_rw(seed) if c.write_pct == 25]
    mrsw = [c for c in swlock_rw(seed) if c.lock == "mrsw"]
    return [
        dataclasses.replace(c, observed=True)
        for c in lcu[:OBSERVED_PER_FAMILY] + mrsw[:OBSERVED_PER_FAMILY]
    ]


def workload_cells(workload: str, seed: int) -> List[Cell]:
    """The cell list of ``workload`` at benchmark seed ``seed``."""
    makers = {
        "lcu_rw": lcu_rw, "swlock_rw": swlock_rw,
        "nemesis": nemesis, "observed": observed,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    return makers[workload](seed)
