"""Sequential reference model of a fair reader-writer lock.

The oracle shadows one lock at the software level.  Under the invariant
monitor it checks every "request", "acquire", "release" and "abandon"
event of the ``lock`` topic of the probe bus (:mod:`repro.sim.bus`)
against the lock's shared :class:`~repro.sim.bus.LockTable`, read as it
stood before the event; standalone, its :meth:`request` /
:meth:`acquire` / :meth:`release` / :meth:`abandon` check the event and
then apply it to the oracle's own table.  The observed order is
cross-checked against what *any* correct reader-writer lock may legally
produce:

* exclusion — a writer acquires only when nobody holds the lock, a
  reader only when no writer holds it;
* protocol sanity — acquisitions only by threads that requested,
  releases only by threads that hold, matching modes;
* bounded overtake — when the algorithm claims fairness
  (``LockAlgorithm.fair``), no waiter may be overtaken more than a
  bounded number of times by later-arriving requesters.

The overtake bound is deliberately *loose*: FIFO hardware like the LCU
still reorders legitimately in small ways (local RD_REL re-acquisition,
LRT read-sharing with overflow readers, grant-timer forwarding past a
preempted thread).  Grant-timer timeouts are reported to the oracle via
:meth:`grant_timeout` and widen the budget further, since each timeout
represents one waiter the hardware legally skipped.  Waiters that are
frozen outright by an injected core stall cannot consume a grant at all;
the monitor passes them as ``excused`` to :meth:`check_acquire` and
passing one does not count as an overtake.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.fairness import OvertakeLedger
from repro.sim.bus import LockTable


class RWLockOracle:
    """Cross-check observed acquisition orders of one lock.

    Violations are reported through ``on_violation(message)`` (the
    monitor raises an :class:`~repro.check.invariants.InvariantViolation`
    from it) and recorded in :attr:`violations` either way, so the
    oracle is usable standalone in tests.
    """

    #: default overtake budget floor when ``fair`` and no explicit bound
    MIN_BOUND = 16

    def __init__(
        self,
        fair: bool = False,
        overtake_bound: Optional[int] = None,
        on_violation: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.fair = fair
        self.overtake_bound = overtake_bound
        self.violations: List[str] = []
        self._on_violation = on_violation
        #: the waiter/holder table the checks read; the monitor points
        #: it at the lock's table on the ``lock`` topic (re-entrant
        #: holds are not modelled; the harnesses never hold one lock
        #: twice from one thread)
        self.table = LockTable()
        # arrival-vs-grant accounting is delegated to the shared
        # OvertakeLedger (the same implementation the fairness
        # observatory measures with), run *without* the reader-batch
        # exemption: the oracle's historical budget is deliberately
        # loose enough to absorb legal read-sharing, and keeping the
        # exemption off keeps its verdicts byte-identical
        self.ledger = OvertakeLedger(reader_batch_exempt=False)
        self.timeout_credits = 0
        self._tids_seen: set = set()

    @property
    def overtaken(self) -> Dict[int, int]:
        """tid -> how many later arrivals acquired while tid kept
        waiting (live view of the ledger's per-request counts)."""
        return self.ledger.counts

    @property
    def max_overtake(self) -> int:
        return self.ledger.max_overtake

    # ------------------------------------------------------------------ #

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self._on_violation is not None:
            self._on_violation(message)

    def _bound(self) -> int:
        if self.overtake_bound is not None:
            base = self.overtake_bound
        else:
            base = max(self.MIN_BOUND, 4 * len(self._tids_seen))
        return base + self.timeout_credits

    # -- checks: the table as it stood before the event ------------------ #

    def check_request(self, tid: int, write: bool, now: int) -> None:
        self._tids_seen.add(tid)
        if tid in self.table.waiting:
            self._violate(
                f"tid {tid} requested at t={now} while already waiting"
            )
        if tid in self.table.holders:
            self._violate(
                f"tid {tid} requested at t={now} while already holding"
            )
        self.ledger.note_request(tid)

    def check_acquire(self, tid: int, write: bool, now: int,
                      excused: Optional[set] = None) -> None:
        table = self.table
        holders = table.holders
        entry = table.waiting.get(tid)
        if entry is None:
            self._violate(f"tid {tid} acquired at t={now} without a request")
            seq = table.seq
        else:
            seq, req_write, _ = entry
            if req_write != write:
                self._violate(
                    f"tid {tid} requested {'W' if req_write else 'R'} but "
                    f"acquired {'W' if write else 'R'} at t={now}"
                )
        # exclusion against the holder set before the grant
        if write and holders:
            self._violate(
                f"writer tid {tid} acquired at t={now} while held by "
                f"{sorted(holders)}"
            )
        elif not write and any(holders.values()):
            self._violate(
                f"reader tid {tid} acquired at t={now} during a write hold"
            )
        if tid in holders:
            self._violate(f"tid {tid} double-acquired at t={now}")
        self.ledger.clear(tid)
        # fairness: everyone who arrived earlier and is still waiting has
        # been overtaken once more (waiters frozen by an injected core
        # stall are ``excused``: they cannot consume a grant, so passing
        # one is the designed behaviour, not an overtake)
        if self.fair:
            increments = self.ledger.note_grant(
                tid, seq, write, table.waiting, excused=excused,
            )
            for other, count in increments:
                if count > self._bound():
                    self._violate(
                        f"tid {other} overtaken {count}x "
                        f"(bound {self._bound()}) — last by tid {tid} "
                        f"at t={now}"
                    )

    def check_release(self, tid: int, write: bool, now: int) -> None:
        held = self.table.holders.get(tid)
        if held is None:
            self._violate(f"tid {tid} released at t={now} without holding")
        elif held != write:
            self._violate(
                f"tid {tid} held {'W' if held else 'R'} but released "
                f"{'W' if write else 'R'} at t={now}"
            )

    def check_abandon(self, tid: int, now: int) -> None:
        """A trylock gave up: the waiter legally leaves the queue."""
        if tid not in self.table.waiting:
            self._violate(f"tid {tid} abandoned at t={now} without a request")
        self.ledger.clear(tid)

    # -- standalone replay: check, then apply to the oracle's table ------ #

    def request(self, tid: int, write: bool, now: int) -> None:
        self.check_request(tid, write, now)
        self.table.apply("request", tid, write, now)

    def acquire(self, tid: int, write: bool, now: int,
                excused: Optional[set] = None) -> None:
        self.check_acquire(tid, write, now, excused)
        self.table.apply("acquire", tid, write, now)

    def release(self, tid: int, write: bool, now: int) -> None:
        self.check_release(tid, write, now)
        self.table.apply("release", tid, write, now)

    def abandon(self, tid: int, now: int) -> None:
        self.check_abandon(tid, now)
        self.table.apply("abandon", tid, False, now)

    # -- faults ----------------------------------------------------------- #

    def crash(self, tid: int, now: int) -> None:
        """The thread died in an injected crash-stop fault: its hold
        ends (the protocol releases on its behalf — LCU purge or queue
        revocation), its wait ends (a dead waiter can never consume a
        grant), and its overtake record is void.  Not a violation of
        anything: crash recovery is the machinery under test."""
        self.table.holders.pop(tid, None)
        self.table.leave(tid)
        self.ledger.clear(tid)

    def fence(self, tid: int, now: int) -> None:
        """The thread's hold was revoked by a fenced lease reclaim (it
        stalled past its lease; the protocol fenced its token and moved
        on).  Its hold ends — the stale release it will eventually issue
        is consumed by the fence, never reaching the lock — but unlike
        :meth:`crash` the thread is still alive: a pending *wait* stays,
        because the thread will re-request and acquire normally."""
        self.table.holders.pop(tid, None)
        self.ledger.clear(tid)

    def grant_timeout(self) -> None:
        """The hardware grant timer skipped an absent waiter; later
        acquisitions may legally overtake it."""
        self.timeout_credits += 1

    # -- end of run ------------------------------------------------------ #

    def end_state_problems(self) -> List[str]:
        problems = list(self.violations)
        holders, waiting = self.table.holders, self.table.waiting
        if holders:
            problems.append(
                f"still held at end of run by {sorted(holders)}"
            )
        if waiting:
            problems.append(
                f"still waiting at end of run: {sorted(waiting)} "
                "(lost wakeup?)"
            )
        return problems
