"""The one process-pool fan-out: :func:`shard_map`.

The sweep (:mod:`repro.harness.parallel`), the schedule fuzzer's matrix
(:mod:`repro.check.fuzz`) and the nemesis matrix
(:mod:`repro.faults.nemesis`) all run lists of independent, seeded
simulations and merge the results in *spec order*, so their reports are
byte-identical for any worker count.  This module is that shared step.
It imports nothing from ``repro``, so any layer can use it without an
import cycle.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterator, Sequence, TypeVar

S = TypeVar("S")
R = TypeVar("R")


def shard_map(fn: Callable[[S], R], specs: Sequence[S],
              workers: int = 0) -> Iterator[R]:
    """Yield ``fn(spec)`` for every spec, in spec order.

    ``workers >= 2`` with more than one spec fans the calls out over a
    spawn-context process pool (spawn, not fork: each worker imports a
    clean interpreter, so no inherited module state can perturb a
    shard); ``fn`` and the specs must then pickle, and ``fn`` should
    return plain data.  Otherwise the calls run in-process, one at a
    time as the results are consumed.  Either way the results arrive in
    spec order, never completion order.
    """
    if workers >= 2 and len(specs) > 1:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(specs))) as pool:
            yield from pool.imap(fn, specs)
    else:
        for spec in specs:
            yield fn(spec)
