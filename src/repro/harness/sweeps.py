"""Sensitivity sweeps and crossover analysis.

The paper's figures sample fixed points; these helpers map out *where*
one locking design overtakes another as a workload parameter moves —
e.g. the critical-section length below which hardware queueing matters,
or the contention level where TATAS collapses.  Used by the crossover
tests of ``benchmarks/test_sweep_crossovers.py``; no CLI verb calls them
(``python -m repro sweep`` runs :mod:`repro.harness.parallel`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.microbench import run_microbench
from repro.params import MachineConfig


@dataclasses.dataclass
class SweepResult:
    parameter: str
    values: List
    series: Dict[str, List[float]]    # lock -> cycles/CS at each value

    def ratio(self, a: str, b: str) -> List[float]:
        """Per-point ratio series[a] / series[b]."""
        return [
            x / y for x, y in zip(self.series[a], self.series[b])
        ]

    def crossover(self, a: str, b: str) -> Optional[int]:
        """Index of the first sweep point where ``a`` stops beating ``b``
        (ratio crosses 1.0), or None if it never does."""
        for i, r in enumerate(self.ratio(a, b)):
            if r >= 1.0:
                return i
        return None


def sweep_parameter(
    config_factory: Callable[[], MachineConfig],
    parameter: str,
    values: Sequence,
    locks: Sequence[str],
    threads: int = 16,
    write_pct: int = 100,
    iters_per_thread: int = 60,
    **fixed,
) -> SweepResult:
    """Sweep one ``run_microbench`` keyword over ``values`` for each lock.

    ``parameter`` is any keyword of
    :func:`repro.harness.microbench.run_microbench` (e.g. ``cs_cycles``,
    ``think_cycles``) or the special value ``"threads"``.
    """
    series: Dict[str, List[float]] = {}
    for lock in locks:
        vals: List[float] = []
        for v in values:
            kwargs = dict(
                threads=threads, write_pct=write_pct,
                iters_per_thread=iters_per_thread, **fixed,
            )
            if parameter == "threads":
                kwargs["threads"] = v
            else:
                kwargs[parameter] = v
            r = run_microbench(config_factory(), lock, **kwargs)
            vals.append(r.cycles_per_cs)
        series[lock] = vals
    return SweepResult(parameter, list(values), series)


def cs_length_sweep(
    config_factory, locks=("lcu", "mcs"), values=(10, 100, 1_000, 10_000),
    **kw,
) -> SweepResult:
    """How long must the critical section get before lock choice stops
    mattering?  (The paper's phase argument: transfer + release overhead
    amortizes as load/compute grows.)"""
    return sweep_parameter(config_factory, "cs_cycles", values, locks, **kw)


def contention_sweep(
    config_factory, locks=("lcu", "tatas"), values=(2, 4, 8, 16, 32), **kw,
) -> SweepResult:
    """Thread-count sweep: where does a single-line lock collapse?"""
    return sweep_parameter(config_factory, "threads", values, locks, **kw)
