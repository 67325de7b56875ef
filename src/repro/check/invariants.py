"""Continuous invariant monitoring for lock-protocol simulations.

The :class:`InvariantMonitor` is a subscriber of the probe bus
(:mod:`repro.sim.bus`), as the telemetry layer is: the ``lock`` topic
shows it every software-level request, acquire and release, the ``lcu``
and ``lrt`` topics every grant timeout, eviction and lease reclaim, and
the ``net`` topic every lock-protocol message, after whose delivery it
audits the LCU/LRT queues.  Any breach raises a structured
:class:`InvariantViolation` carrying the invariant name, the event time
and a window of the most recent lock-protocol messages (a bounded ring
the monitor's own ``net`` subscriber fills; heartbeats stay out of it).

Invariants checked:

``rw_exclusion``    writers exclusive, readers share (software level,
                    via the ``lock`` topic), plus the hardware
                    shadow: no two ACQ entries on one address where one
                    is a writer.
``queue_shape``     LCU queue links form no cycles; a waiting node's
                    lock is known to its home LRT (no orphans); at most
                    one live head-token holder per address; a writer in
                    ACQ always carries the head token.
``fairness``        bounded overtake, delegated to the per-lock
                    :class:`repro.check.oracle.RWLockOracle`.
``quiescence``      after a drain, no LCU entries, no live LRT locks,
                    and all LRT counters structurally sane
                    (:func:`check_quiescent` — what the test suite's
                    ``drain_and_check`` has become).

The monitor reads exclusion off each lock's
:class:`~repro.sim.bus.LockTable`; :class:`ExclusionTracker` keeps the
same check as counters for tests that track critical sections from
inside thread programs (the test suite's ``RWTracker``), and both use
one definition of "correct".
"""

from __future__ import annotations

import collections
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.lcu import messages
from repro.lcu.entry import ACQ, RCV, WAIT
from repro.obs.spans import TraceRecord

#: the lock-protocol messages: every record of :mod:`repro.lcu.messages`
#: that names a lock address (all but the ``Heartbeat`` beacon)
_LOCK_MESSAGES = frozenset(
    cls for cls in vars(messages).values()
    if isinstance(cls, type) and "addr" in getattr(cls, "_fields", ())
)


class InvariantViolation(RuntimeError):
    """A checked invariant failed.

    Structured: ``invariant`` (short name), ``message``, ``time`` (cycle
    the breach was detected), free-form ``details``, and ``events`` — a
    rendered window of the protocol messages leading up to the breach.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        time: Optional[int] = None,
        details: Optional[Dict[str, Any]] = None,
        events: Optional[List[str]] = None,
    ) -> None:
        self.invariant = invariant
        self.message = message
        self.time = time
        self.details = dict(details or {})
        self.events = list(events or [])
        super().__init__(self.render())

    def render(self) -> str:
        head = f"[{self.invariant}] {self.message}"
        if self.time is not None:
            head += f" (cycle {self.time})"
        lines = [head]
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]}")
        if self.events:
            lines.append(f"  last {len(self.events)} protocol events:")
            lines.extend(f"    {e}" for e in self.events)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (embedded in fuzz reproducers)."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "time": self.time,
            "details": {k: repr(v) for k, v in self.details.items()},
            "events": self.events,
        }


class LivenessViolation(InvariantViolation):
    """The liveness oracle fired: an armed request was not granted
    within the configured bound after the last injected fault — a
    silent post-fault hang, surfaced as a structured violation with the
    protocol trace window instead of a timed-out run."""

    def __init__(
        self,
        message: str,
        time: Optional[int] = None,
        details: Optional[Dict[str, Any]] = None,
        events: Optional[List[str]] = None,
    ) -> None:
        super().__init__(
            "liveness", message, time=time, details=details, events=events
        )


def _exclusion_problem(readers: int, writers: int, write: bool,
                      enter: bool) -> Optional[str]:
    """What is wrong with a ``write``/read critical section beginning
    (``enter``) or ending while ``readers`` and ``writers`` are inside,
    or None."""
    if not enter:
        if (writers if write else readers) <= 0:
            who = "writer" if write else "reader"
            return f"{who} exit without matching enter"
    elif write and (readers or writers):
        return f"writer entered with r={readers} w={writers}"
    elif not write and writers:
        return f"reader entered with w={writers}"
    return None


class ExclusionTracker:
    """Reader-writer exclusion counters for one lock, for tests that
    check exclusion from inside thread programs.  Breaches are appended
    to :attr:`violations`, worded as the :class:`InvariantMonitor`
    words them."""

    def __init__(self) -> None:
        self.readers = 0
        self.writers = 0
        self.max_readers = 0
        self.total = 0
        self.violations: List[str] = []

    def _check(self, write: bool, enter: bool) -> None:
        problem = _exclusion_problem(self.readers, self.writers, write, enter)
        if problem is not None:
            self.violations.append(problem)

    def enter(self, write: bool) -> None:
        self._check(write, enter=True)
        if write:
            self.writers += 1
        else:
            self.readers += 1
            self.max_readers = max(self.max_readers, self.readers)

    def exit(self, write: bool) -> None:
        self._check(write, enter=False)
        if write:
            self.writers -= 1
        else:
            self.readers -= 1
        self.total += 1

    def assert_clean(self) -> None:
        assert not self.violations, self.violations
        assert self.readers == 0 and self.writers == 0


# --------------------------------------------------------------------- #
# structural audits of the distributed LCU/LRT queues


def _lcu_entry_at(machine, addr: int, who) -> Optional[object]:
    if who is None or who.lcu >= len(machine.lcus):
        return None
    return machine.lcus[who.lcu].entry(who.tid, addr)


def _carries_token(e) -> bool:
    return e.head and e.status in (RCV, ACQ) and not e.overflow


def audit_lcu_queues(machine, strict: bool = False) -> List[str]:
    """Walk every LCU/LRT structure and return a list of problems.

    Non-strict mode checks only invariants that hold at *every* event
    boundary (cycle freedom, head-token uniqueness, hardware-level
    exclusion, counter sanity); strict mode additionally requires full
    quiescence — no LCU entries and no live LRT locks at all.

    The live monitor runs this after every lock-protocol message while
    only a handful of units hold state, so empty units are skipped, and the
    lists a problem's message names are built only once it is found.
    """
    problems: List[str] = []

    # Index all entries by address for the per-address checks.
    by_addr: Dict[int, List[tuple]] = {}
    total_entries = 0
    for lcu in machine.lcus:
        entries = lcu._entries
        if not entries:
            continue
        total_entries += len(entries)
        lcu_id = lcu.lcu_id
        for (addr, tid), e in entries.items():
            by_addr.setdefault(addr, []).append((lcu_id, tid, e))

    if strict and total_entries:
        problems.append(f"{total_entries} LCU entr(ies) leaked")

    for addr, nodes in sorted(by_addr.items()):
        # queue links: following ``next`` must terminate without revisits
        for lcu_id, tid, e in nodes:
            if e.next is None:
                continue
            seen = {(lcu_id, tid)}
            cur = e
            while cur is not None and cur.next is not None:
                nxt = cur.next
                key = (nxt.lcu, nxt.tid)
                if key in seen:
                    problems.append(
                        f"queue cycle on {addr:#x}: revisited LCU{nxt.lcu}"
                        f"/tid{nxt.tid} starting from LCU{lcu_id}/tid{tid}"
                    )
                    break
                if len(seen) > total_entries:
                    problems.append(
                        f"queue walk on {addr:#x} exceeds entry count"
                    )
                    break
                seen.add(key)
                cur = _lcu_entry_at(machine, addr, nxt)

        # head token: at most one live holder per address.  Overflow-mode
        # entries are excluded: they are LRT-accounted holders outside
        # the queue (nonblocking read grants, and readers converted by a
        # hardened-mode QueueReset), not token carriers.  Then the
        # hardware-level exclusion shadow: a writer holds alone.
        heads = holders = writers = 0
        for _lcu_id, _tid, e in nodes:
            if _carries_token(e):
                heads += 1
            if e.status == ACQ:
                holders += 1
                if e.write:
                    writers += 1
        if heads > 1:
            problems.append(
                f"multiple head-token holders on {addr:#x}: "
                f"{[(l, t) for l, t, e in nodes if _carries_token(e)]}"
            )
        if writers and holders > 1:
            problems.append(
                f"writer shares {addr:#x} with other holders: "
                f"{[(l, t) for l, t, e in nodes if e.status == ACQ]}"
            )
        for lcu_id, tid, e in nodes:
            # a writer in ACQ carries the head token
            if e.status == ACQ and e.write and not e.head:
                problems.append(
                    f"writer ACQ without head token on {addr:#x} "
                    f"(LCU{lcu_id}/tid{tid})"
                )
        # orphans: a waiting node's lock must be known to its home LRT
        for lcu_id, tid, e in nodes:
            if e.status == WAIT:
                lrt = machine.lrts[machine.mem.home_of(addr)]
                if lrt.entry(addr) is None:
                    problems.append(
                        f"orphaned WAIT entry on {addr:#x} "
                        f"(LCU{lcu_id}/tid{tid}): unknown to home LRT"
                    )

    # Locks parked in a Free Lock Table are invisible releases: the LRT
    # legitimately still considers them held at quiescence (paper IV-C).
    # Only the strict occupancy check reads them.
    parked = set()
    if strict:
        for lcu in machine.lcus:
            parked.update(lcu._flt.keys())

    # LRT-side counter sanity (and strict-mode occupancy); ``_live``
    # counts an LRT's entries, in its sets and its overflow alike
    for lrt in machine.lrts:
        if not lrt._live:
            continue
        if strict:
            stray = [
                addr
                for entries in (*lrt._sets.values(), lrt._overflow)
                for addr in entries
                if addr not in parked
            ]
            if stray:
                problems.append(
                    f"LRT{lrt.lrt_id} still holds {len(stray)} live "
                    f"lock(s): {[hex(a) for a in stray[:8]]}"
                )
        for entries in lrt._sets.values():
            _audit_lrt_entries(entries, problems)
        _audit_lrt_entries(lrt._overflow, problems)
    return problems


def _audit_lrt_entries(entries, problems: List[str]) -> None:
    for e in entries.values():
        if e.reader_cnt < 0:
            problems.append(f"negative reader_cnt: {e!r}")
        if e.writers_waiting < 0:
            problems.append(f"negative writers_waiting: {e!r}")
        if (e.head is None) != (e.tail is None):
            problems.append(f"half-empty queue pointers: {e!r}")


def check_quiescent(machine, max_cycles: int = 200_000) -> None:
    """Settle in-flight traffic, then assert the machine is fully clean:
    no leaked LCU entries, no live LRT locks, structurally sane queues.
    Raises :class:`InvariantViolation` — the production form of the test
    suite's historical ``drain_and_check``.

    The settling is :meth:`Machine.drain`: on a hardened machine it
    ends at the first heartbeat-wave boundary at which the lock
    machinery is idle (this audit's strict condition, plus an empty
    wire and a spent fault plan), so a clean machine is judged within
    one heartbeat interval, while one with leaked state drains the full
    ``max_cycles`` and is judged at the cap's cycle."""
    machine.drain(max_cycles)
    machine.check_lock_invariants()
    problems = audit_lcu_queues(machine, strict=True)
    if problems:
        raise InvariantViolation(
            "quiescence",
            f"{len(problems)} problem(s) after drain",
            time=machine.sim.now,
            details={f"problem{i}": p for i, p in enumerate(problems)},
        )


# --------------------------------------------------------------------- #
# the live monitor


class InvariantMonitor:
    """Attach to a machine (and optionally a lock algorithm) and check
    invariants continuously while the simulation runs.

    Usage::

        mon = InvariantMonitor(machine, algo).attach()
        ... spawn threads using algo.acquire / algo.release ...
        os_.run_all()
        mon.finish()        # quiescent + oracle end-state checks
        mon.detach()

    Exclusion and the oracle checks run on every ``lock`` event.  The
    structural queue audit (:meth:`_probe`) is the ``net`` delivery
    continuation of every lock-protocol message, so it runs right after
    the destination LCU or LRT handled it.  :attr:`oracles` holds the
    one record per lock, keyed by ``LockTable.id``: for the hardware
    locks, the address the ``lcu``/``lrt`` events carry.

    ``span_tracer`` — if a :class:`repro.obs.SpanTracer` is recording
    the run, open spans are flushed (closed at violation time), not
    dropped, before an :class:`InvariantViolation` propagates, so the
    trace of a failing run is complete up to the failure.
    """

    def __init__(
        self,
        machine,
        algo=None,
        *,
        history: int = 32,
        overtake_bound: Optional[int] = None,
        span_tracer=None,
    ) -> None:
        from repro.check.oracle import RWLockOracle

        self.machine = machine
        self.algo = algo
        #: optional OS handle (set by harnesses that inject scheduler
        #: faults): threads frozen by a forced core stall are excused
        #: from overtake accounting, since they cannot consume a grant
        self.os = None
        #: liveness oracle (armed by fault harnesses): every request by
        #: a surviving thread must be granted within this many cycles of
        #: ``max(request time, last injected fault)``; None disarms it
        self.liveness_bound: Optional[int] = None
        #: ``fn() -> cycle`` of the most recent injected fault (the
        #: harness wires the injector's ``last_fault_at`` here)
        self.last_fault_at_fn: Optional[Callable[[], int]] = None
        #: tids killed by injected crash-stop faults (fed by
        #: :meth:`on_crash` via ``OS.crash_hooks``)
        self._crashed_tids: set = set()
        #: gray-failure lease recovery (all three empty in unfaulted
        #: runs — every hot-path use is truthiness-guarded; keyed by
        #: lock id).  A reclaim era closing is reported by the LRT as a
        #: burst of "survivor" events (buffered here per address)
        #: followed by one terminal "fenced"/"reclaim" event; see
        #: :meth:`_era_closed`.
        self._survivor_buf: Dict[int, set] = {}
        #: fencing armed: tids whose hold was voided by a fenced
        #: reclaim — their eventual stale release event is consumed
        #: (the protocol fenced it; the table dropped the hold at era
        #: close)
        self._fenced_voided: Dict[Any, set] = {}
        #: sabotage mode (fencing off): stale holders the protocol
        #: reclaimed *without* fencing, tid -> write.  A conflicting
        #: later acquire proves the zombie-writer hole.
        self._reclaimed: Dict[Any, Dict[int, bool]] = {}
        self.history = history
        self.overtake_bound = overtake_bound
        self.span_tracer = span_tracer
        self._oracle_cls = RWLockOracle
        #: the last ``history`` lock-protocol sends, for violations
        self._ring: Deque[TraceRecord] = collections.deque(maxlen=history)
        self._attached = False
        #: lock id -> the lock's oracle (its ``table`` is the lock's
        #: :class:`~repro.sim.bus.LockTable`)
        self.oracles: Dict[Any, Any] = {}
        self.stats: Dict[str, int] = {
            "lock_events": 0, "hw_events": 0, "audits": 0,
        }

    # -- lifecycle ------------------------------------------------------ #

    def attach(self) -> "InvariantMonitor":
        if self._attached:
            return self
        bus = self.machine.sim.bus
        bus.net.append(self._on_send)
        bus.lcu.append(self._on_hw_event)
        bus.lrt.append(self._on_hw_event)
        if self.algo is not None:
            bus.lock.append(self._on_lock_event)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        bus = self.machine.sim.bus
        bus.net.remove(self._on_send)
        bus.lcu.remove(self._on_hw_event)
        bus.lrt.remove(self._on_hw_event)
        if self.algo is not None:
            bus.lock.remove(self._on_lock_event)
        self._attached = False

    # -- violation plumbing --------------------------------------------- #

    def recent_events(self) -> List[str]:
        return [r.render() for r in self._ring]

    def _violate(self, invariant: str, message: str, **details: Any) -> None:
        if self.span_tracer is not None:
            self.span_tracer.flush_open()
        raise InvariantViolation(
            invariant,
            message,
            time=self.machine.sim.now,
            details=details,
            events=self.recent_events(),
        )

    def _violate_liveness(self, message: str, **details: Any) -> None:
        if self.span_tracer is not None:
            self.span_tracer.flush_open()
        raise LivenessViolation(
            message,
            time=self.machine.sim.now,
            details=details,
            events=self.recent_events(),
        )

    # -- crash-stop fault support ---------------------------------------- #

    def _last_fault_at(self) -> int:
        return (
            self.last_fault_at_fn() if self.last_fault_at_fn is not None
            else 0
        )

    def on_crash(self, thread) -> None:
        """Crash hook (wired to ``OS.crash_hooks`` by fault harnesses):
        ``thread`` died in an injected crash.  Its holds are released on
        its behalf at the protocol level (LCU purge / queue revocation),
        so each lock's table must drop them too — otherwise the oracle
        would report a phantom holder, and a grant to the next waiter
        would look like an exclusion breach."""
        self._crashed_tids.add(thread.tid)
        for oracle in self.oracles.values():
            oracle.crash(thread.tid, self.machine.sim.now)

    # -- hooks ----------------------------------------------------------- #

    def _oracle_for(self, lock):
        oracle = self.oracles.get(lock.id)
        if oracle is None:
            fair = bool(self.algo is not None and self.algo.fair)
            oracle = self._oracle_cls(
                fair=fair,
                overtake_bound=self.overtake_bound,
                on_violation=lambda msg, h=lock.handle: self._violate(
                    "fairness", msg, handle=h
                ),
            )
            oracle.table = lock
            self.oracles[lock.id] = oracle
        return oracle

    def _check_exclusion(self, lock, write: bool, enter: bool) -> None:
        """:func:`_exclusion_problem` against ``lock``'s holders."""
        writers = sum(lock.holders.values())
        readers = len(lock.holders) - writers
        problem = _exclusion_problem(readers, writers, write, enter)
        if problem is not None:
            self._violate("rw_exclusion", problem, handle=lock.handle)

    def _on_lock_event(self, event: str, lock, tid: int,
                       write: bool) -> None:
        self.stats["lock_events"] += 1
        now = self.machine.sim.now
        oracle = self._oracle_for(lock)
        if event == "request":
            oracle.check_request(tid, write, now)
        elif event == "acquire":
            if self._reclaimed:
                self._check_zombie(lock, tid, write, now)
            if self.liveness_bound is not None:
                entry = lock.waiting.get(tid)
                if entry is not None:
                    # Bound the grant delay from whichever is later: the
                    # request, or the last injected fault (recovery time
                    # is charged to recovery, not to the whole wait).
                    start = max(entry[2], self._last_fault_at())
                    delay = now - start
                    if delay > self.liveness_bound:
                        self._violate_liveness(
                            f"tid {tid} waited {delay} cycles for a "
                            f"{'write' if write else 'read'} grant "
                            f"(bound {self.liveness_bound}) after the "
                            "last fault",
                            handle=lock.handle, requested=entry[2],
                            last_fault=self._last_fault_at(),
                        )
            self._check_exclusion(lock, write, enter=True)
            oracle.check_acquire(tid, write, now,
                                 excused=self._frozen_tids(now))
        elif event == "release":
            if self._fenced_voided:
                voided = self._fenced_voided.get(lock.id)
                if voided is not None and tid in voided:
                    # The stale release of a hold a fenced reclaim
                    # already voided: the protocol fenced it, the table
                    # dropped it at era close — consume, don't re-check.
                    voided.discard(tid)
                    return
            if self._reclaimed:
                stale = self._reclaimed.get(lock.id)
                if stale is not None:
                    # Sabotage mode: the zombie released before anyone
                    # conflicted — the hole closed unobserved this time.
                    stale.pop(tid, None)
            self._check_exclusion(lock, write, enter=False)
            oracle.check_release(tid, write, now)
        elif event == "abandon":
            oracle.check_abandon(tid, now)

    def _check_zombie(self, lock, tid: int, write: bool, now: int) -> None:
        """An acquire is being granted while unfenced stale holders from
        a lease reclaim exist (sabotage mode).  A conflicting grant —
        any grant over a stale writer, or a write grant over any stale
        holder — is the zombie-writer exclusion hole fencing closes."""
        stale = self._reclaimed.get(lock.id)
        if not stale:
            return
        others = {t: w for t, w in stale.items() if t != tid}
        if not others:
            return
        if write or any(others.values()):
            self._violate(
                "zombie_writer",
                f"tid {tid} granted {'W' if write else 'R'} at t={now} "
                f"while zombie holder(s) {sorted(others)} from an "
                "unfenced lease reclaim may still be in their critical "
                "sections",
                handle=lock.handle,
                zombies={t: ("W" if w else "R") for t, w in others.items()},
            )

    def _frozen_tids(self, now: int) -> Optional[set]:
        """Tids that cannot consume a grant — frozen by an injected core
        stall, or dead from an injected crash — or ``None``.

        The sets are only built once the OS has recorded a forced stall
        or a crash hook has fired, so unfaulted runs never pay for (or
        change behaviour on) this.
        """
        stalled = self.os is not None and self.os.forced_stalls
        if not stalled and not self._crashed_tids:
            return None
        frozen = set(self._crashed_tids)
        if stalled:
            frozen |= {
                t.tid for t in self.os.threads
                if t.frozen or t.freeze_until > now
            }
        return frozen or None

    def _on_hw_event(self, event: str, addr: int, tid: int,
                     write: bool) -> None:
        self.stats["hw_events"] += 1
        if event == "survivor":
            # One live hold the LRT's reclaim handshake confirmed (it
            # re-seated the writer or re-credited the reader); buffered
            # until the era's terminal event arrives.
            self._survivor_buf.setdefault(addr, set()).add(tid)
            return
        if event in ("fenced", "reclaim"):
            self._era_closed(
                addr, tid, write,
                survivors=self._survivor_buf.pop(addr, set()),
                fenced=(event == "fenced"),
            )
            return
        if event in ("timeout", "evict"):
            # The grant timer acted on behalf of an absent thread
            # (preempted, migrated, or an abandoned trylock), or fault
            # injection evicted a queue node outright: later
            # acquisitions may legally overtake it, so the oracle's
            # overtake budget for this lock is widened.
            oracle = self.oracles.get(addr)
            if oracle is not None:
                oracle.grant_timeout()

    def _era_closed(self, addr: int, victim_tid: int, victim_write: bool,
                    survivors: set, fenced: bool) -> None:
        """A lease reclaim of ``addr`` completed its reset handshake.
        ``survivors`` are the holds the handshake confirmed live; any
        other holder the lock's table still lists is a zombie whose
        hold the protocol revoked.  With fencing armed the zombie's
        token is dead — drop its hold from the table and earmark its
        stale release for consumption.  In sabotage mode nothing
        protects the next grant from it: record it so a conflicting
        acquire raises the ``zombie_writer`` violation.
        """
        oracle = self.oracles.get(addr)
        if oracle is None:
            return
        now = self.machine.sim.now
        for tid, write in list(oracle.table.holders.items()):
            if tid in survivors or tid in self._crashed_tids:
                continue
            if fenced:
                oracle.fence(tid, now)
                self._fenced_voided.setdefault(addr, set()).add(tid)
            else:
                self._reclaimed.setdefault(addr, {})[tid] = write

    def _on_send(self, src, dst, payload) -> Optional[Callable[[], None]]:
        """Record each lock-protocol message in the window, and audit
        after it is handled."""
        if type(payload) in _LOCK_MESSAGES:
            self._ring.append(
                TraceRecord(self.machine.sim.now, src, dst, payload)
            )
            return self._probe
        return None

    def _probe(self) -> None:
        if not self._attached:
            return      # a message sent before detach() landed after it
        self.stats["audits"] += 1
        problems = audit_lcu_queues(self.machine, strict=False)
        if problems:
            self._violate(
                "queue_shape",
                problems[0],
                extra_problems=problems[1:],
            )

    # -- end of run ------------------------------------------------------ #

    def finish(self, max_cycles: int = 200_000) -> None:
        """End-of-run verdict: quiescent machine state plus the end
        state of every lock (no holder left, nothing still waiting)."""
        try:
            check_quiescent(self.machine, max_cycles)
        except InvariantViolation:
            if self.span_tracer is not None:
                self.span_tracer.flush_open()
            raise
        for oracle in self.oracles.values():
            holders = oracle.table.holders
            if holders:
                writers = sum(holders.values())
                self._violate(
                    "rw_exclusion",
                    f"end state not clean: r={len(holders) - writers} "
                    f"w={writers}",
                    handle=oracle.table.handle,
                )
        if self.liveness_bound is not None:
            now = self.machine.sim.now
            for oracle in self.oracles.values():
                waiting = oracle.table.waiting
                for tid, (_seq, write, req_time) in waiting.items():
                    if tid in self._crashed_tids:
                        continue
                    start = max(req_time, self._last_fault_at())
                    if now - start > self.liveness_bound:
                        self._violate_liveness(
                            f"tid {tid} still waiting for a "
                            f"{'write' if write else 'read'} grant "
                            f"{now - start} cycles after the last fault "
                            f"(bound {self.liveness_bound})",
                            handle=oracle.table.handle, requested=req_time,
                            last_fault=self._last_fault_at(),
                        )
        for oracle in self.oracles.values():
            leftover = oracle.end_state_problems()
            if leftover:
                self._violate("oracle", leftover[0],
                              handle=oracle.table.handle)
