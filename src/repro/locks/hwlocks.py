"""Hardware lock units exposed through the common LockAlgorithm interface.

``LcuRwLock`` is the paper's proposal (delegating to :mod:`repro.lcu.api`);
``SsbLock`` is the Synchronization State Buffer baseline, whose waiters
retry *remotely* with a bounded backoff — the traffic pattern behind the
Model B collapse in Figure 9b.
"""

from __future__ import annotations

from typing import Generator

from repro.cpu import ops
from repro.cpu.os_sched import SimThread
from repro.lcu import api as lcu_api
from repro.locks.base import LockAlgorithm, register


@register
class LcuRwLock(LockAlgorithm):
    """The Lock Control Unit reader-writer lock (the paper's proposal)."""

    name = "lcu"
    hardware = True
    local_spin = True
    rw_support = True
    trylock_support = True
    fair = True
    queue_eviction_detection = True    # grant timer skips absent threads
    scalability = "very good"
    memory_overhead = "LCU/LRT entries (no memory)"
    transfer_messages = "1 (direct LCU-to-LCU)"

    def make_lock(self) -> int:
        # Any memory word can be locked; no initialisation needed.
        return self.machine.alloc.alloc_line()

    def lock(self, thread: SimThread, handle: int, write: bool) -> Generator:
        # open-coded lcu_api.lock so the first *unsuccessful* acq — the
        # moment the request is enqueued in LCU/LRT hardware — can fire
        # the "enqueued" lock event (an immediate grant never waits)
        first = True
        while True:
            ok = yield ops.LcuAcq(handle, write, False)
            if ok:
                return
            if first:
                first = False
                self.notify("enqueued", thread, handle, write)
            yield ops.LcuWait(handle, timeout=lcu_api._SPIN_RECHECK)

    def trylock(
        self, thread: SimThread, handle: int, write: bool, retries: int = 16
    ) -> Generator:
        result = yield from lcu_api.trylock(handle, write, retries)
        return result

    def unlock(self, thread: SimThread, handle: int, write: bool) -> Generator:
        yield from lcu_api.unlock(handle, write)


@register
class SsbLock(LockAlgorithm):
    """Synchronization State Buffer lock (remote, unfair, retry-based)."""

    name = "ssb"
    hardware = True
    local_spin = False           # retries are remote round trips
    rw_support = True
    trylock_support = True
    fair = False                 # reader preference starves writers
    scalability = "good on-chip, poor across chips"
    memory_overhead = "SSB entries (no memory)"
    transfer_messages = "2 (remote retry round trip)"

    retry_backoff = 80

    def make_lock(self) -> int:
        return self.machine.alloc.alloc_line()

    def lock(self, thread: SimThread, handle: int, write: bool) -> Generator:
        attempt = 0
        while True:
            ok = yield ops.SsbAcq(handle, write)
            if ok:
                return
            if attempt == 0:
                # first remote denial: the thread joined the retry set
                # (the SSB has no queue — this *is* its wait state)
                self.notify("enqueued", thread, handle, write)
            attempt += 1
            # deterministic jitter decorrelates the retry storm a little
            yield ops.Compute(self.retry_backoff + (attempt % 7) * 20)

    def trylock(
        self, thread: SimThread, handle: int, write: bool, retries: int = 16
    ) -> Generator:
        for attempt in range(retries):
            ok = yield ops.SsbAcq(handle, write)
            if ok:
                return True
            yield ops.Compute(self.retry_backoff + (attempt % 7) * 20)
        return False

    def unlock(self, thread: SimThread, handle: int, write: bool) -> Generator:
        yield ops.SsbRel(handle, write)
