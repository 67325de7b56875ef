"""The probe bus: one subscriber list per observation topic.

Observers attach to a simulation by appending a callback to a topic and
detach by removing it, so any number of them coexist and detach in any
order.  Callbacks must be passive: no scheduled events, no messages.

``lcu``, ``lrt``, ``ssb``  ``fn(event, addr, tid, write)`` from the LCUs,
                           the LRTs and the SSB home banks.
``lock``                   ``fn(event, lock, tid, write)`` from the
                           observed wrappers of every
                           :class:`~repro.locks.base.LockAlgorithm`;
                           ``lock`` is the :class:`LockTable` of the
                           lock the event concerns.
``net``                    ``fn(src, dst, payload)`` once per logical
                           :meth:`~repro.net.network.Network.send`; a
                           returned zero-argument callable runs after
                           the destination handler, before the sender's
                           ``on_deliver``.

DESIGN.md "The probe bus" lists the events of each topic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple


class ProbeBus:
    """The five topic lists of one simulation.  Emitters keep a
    reference to their list: an empty one is the only cost of an
    unobserved run."""

    __slots__ = ("lcu", "lrt", "ssb", "lock", "net")

    def __init__(self) -> None:
        self.lcu: List[Callable] = []
        self.lrt: List[Callable] = []
        self.ssb: List[Callable] = []
        self.lock: List[Callable] = []
        self.net: List[Callable] = []


class LockTable:
    """Waiters and holders of one lock, as the ``lock`` topic's events
    leave them: the one copy the invariant monitor, the reference
    oracle, the contention profiler and the fairness observatory read.

    ``id`` is the lock's ``lock_id`` (its primary word), ``handle`` the
    algorithm's handle and ``name`` the algorithm's registry name.
    ``waiting`` maps tid -> (arrival seq, write, request time) in arrival
    order, ``holders`` maps tid -> write.

    The publisher applies each event after every subscriber has seen
    it, so a callback reads the lock as it stood before the event.
    """

    __slots__ = ("id", "handle", "name", "seq", "waiting", "holders",
                 "writers_waiting")

    def __init__(self, lock_id: Any = None, handle: Any = None,
                 name: str = "") -> None:
        self.id = lock_id
        self.handle = handle
        self.name = name
        self.seq = 0
        self.waiting: Dict[int, Tuple[int, bool, int]] = {}
        self.holders: Dict[int, bool] = {}
        self.writers_waiting = 0

    def apply(self, event: str, tid: int, write: bool, now: int) -> None:
        """Apply one thread-level event; unknown events (``enqueued``)
        change nothing."""
        if event == "request":
            # a repeated request replaces the entry in place
            old = self.waiting.get(tid)
            if old is not None and old[1]:
                self.writers_waiting -= 1
            self.seq += 1
            self.waiting[tid] = (self.seq, write, now)
            if write:
                self.writers_waiting += 1
        elif event == "acquire":
            self.leave(tid)
            self.holders[tid] = write
        elif event == "release":
            self.holders.pop(tid, None)
        elif event == "abandon":
            self.leave(tid)

    def leave(self, tid: int) -> None:
        """``tid`` stops waiting (granted, abandoned, or dead)."""
        entry = self.waiting.pop(tid, None)
        if entry is not None and entry[1]:
            self.writers_waiting -= 1
