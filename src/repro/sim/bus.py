"""The probe bus: one subscriber list per observation topic.

Observers attach to a simulation by appending a callback to a topic and
detach by removing it, so any number of them coexist and detach in any
order.  Callbacks must be passive: no scheduled events, no messages.

``lcu``, ``lrt``, ``ssb``  ``fn(event, addr, tid, write)`` from the LCUs,
                           the LRTs and the SSB home banks.
``net``                    ``fn(src, dst, payload)`` once per logical
                           :meth:`~repro.net.network.Network.send`; a
                           returned zero-argument callable runs after
                           the destination handler, before the sender's
                           ``on_deliver``.

DESIGN.md "The probe bus" lists the events of each topic.
"""

from __future__ import annotations

from typing import Callable, List


class ProbeBus:
    """The four topic lists of one simulation.  Emitters keep a
    reference to their list: an empty one is the only cost of an
    unobserved run."""

    __slots__ = ("lcu", "lrt", "ssb", "net")

    def __init__(self) -> None:
        self.lcu: List[Callable] = []
        self.lrt: List[Callable] = []
        self.ssb: List[Callable] = []
        self.net: List[Callable] = []
