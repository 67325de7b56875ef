"""The operation vocabulary thread programs yield to the scheduler.

A thread program is a Python generator.  Each ``yield`` hands one of these
operation records to the OS/executor, which charges the appropriate
simulated latency (possibly via the network / directory / LCU) and resumes
the generator with the operation's result.

Interruptibility: ``WaitLine`` and ``LcuWait`` model *spinning* — the
thread occupies its core while logically re-executing a load or ``acq``
until something changes.  They can be interrupted by a timeslice
preemption, in which case they complete early with ``None``/``False`` and
the surrounding software loop naturally re-checks after the thread is
rescheduled (possibly on a different core — that is how thread migration
arises in this model, exactly the case the LCU's grant timer handles).

``SleepFor`` and ``FutexWait`` model true OS blocking: the core is
released to other threads.

Every op is an immutable :class:`typing.NamedTuple` record: building one
costs a fraction of a frozen dataclass, and the ``repr`` reads the same.
Each class carries a ``lock_op`` class attribute: synchronisation-relevant
ops (lock instructions, atomics, waits) carry True, and the scheduler
records them as "last lock op" for deadlock diagnosis without an
isinstance sweep per issued op.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional


class Compute(NamedTuple):
    """Burn ``cycles`` of pure computation on the current core."""
    cycles: int


class Load(NamedTuple):
    """Coherent load; resumes with the loaded value."""
    addr: int


class Store(NamedTuple):
    """Coherent store of ``value``."""
    addr: int
    value: int


class Rmw(NamedTuple):
    """Atomic read-modify-write: applies ``fn(old) -> new``; resumes with
    the *old* value.  CAS/TAS/SWAP/F&A are all built from this."""
    addr: int
    fn: Callable[[int], int]


class WaitLine(NamedTuple):
    """Spin until this core's cached copy of ``addr``'s line is
    invalidated (zero traffic while waiting).  Interruptible.

    ``expected`` is the value the spin loop last observed: if the word no
    longer holds it, the wait returns immediately.  This matters after a
    migration — the new core may cache the line with the *current* value,
    in which case no further invalidation is coming and waiting on one
    would deadlock (a real spin loop re-reads, so it would see the new
    value at once).

    ``timeout`` bounds the wait: the op completes after that many cycles
    even without an invalidation (used by spin loops that must do
    periodic work while waiting, e.g. TP-MCS timestamp publishing)."""
    addr: int
    expected: Optional[int] = None
    timeout: Optional[int] = None


class YieldCPU(NamedTuple):
    """Voluntarily end the timeslice (sched_yield)."""


class SleepFor(NamedTuple):
    """Release the core for ``cycles`` (OS sleep)."""
    cycles: int


class FutexWait(NamedTuple):
    """If the word at ``addr`` still equals ``expected``, release the core
    until a ``FutexWake`` on the same address.  Resumes with True if it
    slept, False if the value had already changed."""
    addr: int
    expected: int


class FutexWake(NamedTuple):
    """Wake up to ``count`` threads blocked in ``FutexWait`` on ``addr``."""
    addr: int
    count: int = 1


# --------------------------------------------------------------------- #
# LCU ISA primitives (the paper's acq/rel, plus the footnote's enqueue
# prefetch).  The threadid is implicit — the executor passes the issuing
# thread's tid, matching the paper's process-local software threadid.

class LcuAcq(NamedTuple):
    """``acq(addr, threadid, mode)``: resumes with True iff acquired.
    ``priority`` marks a real-time request (future-work extension)."""
    addr: int
    write: bool
    priority: bool = False


class LcuRel(NamedTuple):
    """``rel(addr, threadid, mode)``: resumes with True iff the release
    was accepted (False means retry, e.g. no free LCU entry)."""
    addr: int
    write: bool


class LcuEnq(NamedTuple):
    """Optional Enqueue prefetch primitive (paper footnote 1): joins the
    queue without acquiring.  Resumes with True if a request was issued or
    already pending."""
    addr: int
    write: bool


class LcuWait(NamedTuple):
    """Spin on the local LCU entry for ``addr`` until its status changes
    (grant arrival etc.).  Resumes immediately if no entry exists here
    (e.g. after migration).  Interruptible; ``timeout`` bounds the wait."""
    addr: int
    timeout: Optional[int] = None


class RemoteRmw(NamedTuple):
    """Memory Atomic Operation (fetch-and-theta at the memory controller,
    SGI Origin / Cray T3E style): applies ``fn(old) -> new`` *at the home
    directory* without caching the line.  Constant memory-side latency,
    no coherence traffic, no L1 involvement.  Resumes with the old value.
    """
    addr: int
    fn: Callable[[int], int]


# --------------------------------------------------------------------- #
# SSB baseline primitives: remote synchronization operations executed at
# the home L2/controller (Zhu et al., ISCA'07).

class SsbAcq(NamedTuple):
    """Remote lock attempt at the home SSB; resumes with True/False."""
    addr: int
    write: bool


class SsbRel(NamedTuple):
    """Remote lock release at the home SSB."""
    addr: int
    write: bool


for _cls in (Compute, Load, Store, YieldCPU, SleepFor):
    _cls.lock_op = False
for _cls in (Rmw, WaitLine, FutexWait, FutexWake, LcuAcq, LcuRel, LcuEnq,
             LcuWait, RemoteRmw, SsbAcq, SsbRel):
    _cls.lock_op = True
del _cls
