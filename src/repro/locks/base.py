"""Common interface and metadata for lock algorithms.

Every lock implementation — software baselines, the LCU, the SSB — is a
:class:`LockAlgorithm`.  The microbenchmark / STM / application harnesses
are written against this interface, so every figure can be regenerated
with any lock by name.

``lock``/``unlock``/``trylock`` are *generator functions* composed into
thread programs with ``yield from``; they yield :mod:`repro.cpu.ops`
records.  ``make_lock`` allocates whatever simulated memory the algorithm
needs and returns an opaque handle.

Metadata fields mirror the columns of the paper's Figure 1 comparison
table so the table can be generated from the code itself.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Type

from repro.cpu.machine import Machine
from repro.cpu.os_sched import SimThread
from repro.sim.bus import LockTable


class LockAlgorithm:
    """Base class: one instance is bound to one machine.

    Besides the raw ``lock``/``unlock``/``trylock`` generator operations,
    the base class provides *observed* wrappers (:meth:`acquire`,
    :meth:`release`, :meth:`try_acquire`) that publish every request,
    grant, release and abandon on the ``lock`` topic of the machine's
    probe bus (:mod:`repro.sim.bus`) — the topic the invariant monitor,
    the contention profiler and the fairness observatory subscribe to.
    Queue locks also publish ``enqueued`` when a thread joins the wait
    queue.  Workloads that want their lock operations observed compose
    the wrappers instead of the raw operations; with nobody subscribed,
    a publication is one falsy check.
    """

    # -- Figure 1 metadata (overridden per algorithm) -------------------- #
    name: str = "abstract"
    local_spin = False
    rw_support = False
    trylock_support = False
    fair = False
    queue_eviction_detection = False
    scalability = "-"           # "poor" / "good" / "very good"
    memory_overhead = "-"       # per-lock cost
    transfer_messages = "-"     # typical lock-transfer message count
    requires_l1_changes = False
    hardware = False

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._subs = machine.sim.bus.lock
        #: lock id -> the :class:`LockTable` the ``lock`` topic carries
        self._tables: Dict[int, LockTable] = {}

    # -- identity ---------------------------------------------------------- #

    def lock_id(self, handle: Any) -> int:
        """The lock's primary word: the handle itself for hardware
        locks, field 0 of a software lock's NamedTuple handle."""
        return handle if isinstance(handle, int) else handle[0]

    # -- publication ------------------------------------------------------- #

    def notify(self, event: str, thread: SimThread, handle: Any,
               write: bool) -> None:
        """Publish ``event`` on the ``lock`` topic, then apply it to the
        lock's :class:`LockTable`."""
        subs = self._subs
        if not subs:
            return
        key = self.lock_id(handle)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = LockTable(key, handle, self.name)
        tid = thread.tid
        for fn in subs:
            fn(event, table, tid, write)
        table.apply(event, tid, write, self.machine.sim.now)

    # -- observed wrappers (generator functions) --------------------------- #

    def acquire(self, thread: SimThread, handle: Any, write: bool) -> Generator:
        """Blocking acquire that publishes "request" before blocking and
        "acquire" once the lock is held."""
        self.notify("request", thread, handle, write)
        yield from self.lock(thread, handle, write)
        self.notify("acquire", thread, handle, write)

    def release(self, thread: SimThread, handle: Any, write: bool) -> Generator:
        """Release that publishes "release" as the critical section ends."""
        self.notify("release", thread, handle, write)
        yield from self.unlock(thread, handle, write)

    def try_acquire(
        self, thread: SimThread, handle: Any, write: bool, retries: int = 16
    ) -> Generator:
        """Bounded acquire publishing "request" then "acquire" on success
        or "abandon" on failure; returns True/False like ``trylock``."""
        self.notify("request", thread, handle, write)
        ok = yield from self.trylock(thread, handle, write, retries)
        self.notify("acquire" if ok else "abandon", thread, handle, write)
        return ok

    # -- lifecycle -------------------------------------------------------- #

    def make_lock(self) -> Any:
        """Allocate and initialise one lock; returns an opaque handle."""
        raise NotImplementedError

    def on_crash(self, thread: SimThread) -> None:
        """Crash-stop notification (fault injection): ``thread`` died.
        Algorithms with host-side bookkeeping keyed by tid, or shared
        words a dead thread would leave permanently skewed, override
        this to perform the cleanup a robust-futex-style OS would do on
        the thread's behalf.  Default: nothing to clean."""

    # -- operations (generator functions) --------------------------------- #

    def lock(self, thread: SimThread, handle: Any, write: bool) -> Generator:
        """Blocking acquire."""
        raise NotImplementedError

    def unlock(self, thread: SimThread, handle: Any, write: bool) -> Generator:
        """Release."""
        raise NotImplementedError

    def trylock(
        self, thread: SimThread, handle: Any, write: bool, retries: int = 16
    ) -> Generator:
        """Bounded acquire; the generator's return value is True/False.
        Default: not supported."""
        raise NotImplementedError(f"{self.name} has no trylock")

    # -- table generation -------------------------------------------------- #

    @classmethod
    def figure1_row(cls) -> List[str]:
        yn = lambda b: "yes" if b else "no"  # noqa: E731
        return [
            cls.name,
            "HW" if cls.hardware else "SW",
            yn(cls.local_spin),
            yn(cls.rw_support),
            yn(cls.trylock_support),
            yn(cls.fair),
            yn(cls.queue_eviction_detection),
            cls.scalability,
            cls.memory_overhead,
            cls.transfer_messages,
            yn(cls.requires_l1_changes),
        ]


_REGISTRY: Dict[str, Type[LockAlgorithm]] = {}


def register(cls: Type[LockAlgorithm]) -> Type[LockAlgorithm]:
    """Class decorator adding the algorithm to the by-name registry."""
    _REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str) -> Type[LockAlgorithm]:
    """Look up a lock algorithm class by its ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown lock algorithm {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_algorithms() -> Dict[str, Type[LockAlgorithm]]:
    return dict(_REGISTRY)
