"""LCU table entries and their status machine (paper Figure 3).

An entry records the locking state of one (address, threadid) pair — the
LCU is addressed by the tuple, so multiple threads on one core can request
the same lock.  Status values:

``ISSUED``  request sent to the LRT, no answer yet
``WAIT``    enqueued behind another node, spinning locally
``RCV``     lock grant received, local thread has not taken it yet
            (a grant timer runs in this state — see Section III-C)
``ACQ``     lock taken by the local thread
``REL``     released / transferred; entry preserved until the LRT confirms
            the head pointer no longer references it
``RD_REL``  intermediate reader released; silent state that waits for the
            Head token to pass through (re-acquirable by the local thread)

Entry kinds implement the overflow plan of Section III-D: a fixed pool of
``ordinary`` entries that may join queues, plus one ``local`` and one
``remote`` *nonblocking* entry that guarantee forward progress when the
pool is exhausted (they never enqueue; the LRT answers RETRY instead of
WAIT for them).
"""

from __future__ import annotations

from typing import Optional

from repro.lcu.messages import Who

# status values
ISSUED = "ISSUED"
WAIT = "WAIT"
RCV = "RCV"
ACQ = "ACQ"
REL = "REL"
RD_REL = "RD_REL"

# entry kinds
ORDINARY = "ordinary"
LOCAL = "local"        # nonblocking, reserved for local-thread requests
REMOTE = "remote"      # nonblocking, reserved for (remote) releases


class LcuEntry:
    """One row of the LCU table (~20 bytes of modelled hardware state)."""

    __slots__ = (
        "addr", "tid", "write", "status", "head", "next", "gen",
        "kind", "nonblocking", "overflow", "pending_ovf", "timer_seq",
        "req_seq",
    )

    def __init__(
        self, addr: int, tid: int, write: bool, kind: str = ORDINARY
    ) -> None:
        self.addr = addr
        self.tid = tid
        self.write = write
        self.status = ISSUED
        self.head = False
        self.next: Optional[Who] = None
        self.gen = 0                    # last known transfer generation
        self.kind = kind
        self.nonblocking = kind != ORDINARY
        self.overflow = False           # granted in overflow mode
        self.pending_ovf = False        # granted writer awaiting OvfClear
        self.timer_seq = 0              # invalidates stale grant timers
        self.req_seq = 0                # seq of the Request this entry sent

    def identity(self, lcu_id: int) -> Who:
        return Who(self.tid, lcu_id, self.write)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f
            for f, b in (
                ("H", self.head),
                ("N", self.nonblocking),
                ("O", self.overflow),
                ("P", self.pending_ovf),
            )
            if b
        )
        mode = "W" if self.write else "R"
        return (
            f"<{self.status} {mode} addr={self.addr:#x} tid={self.tid} "
            f"{flags} next={self.next}>"
        )
