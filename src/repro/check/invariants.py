"""Continuous invariant monitoring for lock-protocol simulations.

The :class:`InvariantMonitor` attaches to a machine through the same
hooks the telemetry layer uses — an engine probe
(:meth:`repro.sim.engine.Simulator.add_probe`), the ``lcu`` and ``lrt``
topics of the probe bus (:mod:`repro.sim.bus`), and
:meth:`repro.locks.base.LockAlgorithm.add_observer` — so every grant,
transfer, timeout and software-level acquire/release is visible to it
while the simulation runs.  Any breach raises a structured
:class:`InvariantViolation` carrying the invariant name, the event time
and a window of the most recent protocol messages (captured with a
bounded :class:`repro.obs.spans.Tracer` on the ``net`` topic).

Invariants checked:

``rw_exclusion``    writers exclusive, readers share (software level,
                    via the observed lock wrappers), plus the hardware
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

:class:`ExclusionTracker` is the reusable exclusion-state core; the test
suite's historical ``RWTracker`` is now a thin alias of it, so the tests
and the production monitor share one definition of "correct".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.lcu.entry import ACQ, RCV, WAIT
from repro.obs.spans import Tracer


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


class ExclusionTracker:
    """Reader-writer exclusion state for one lock.

    ``enter``/``exit`` are called as critical sections begin and end;
    breaches are appended to :attr:`violations` and reported through
    ``on_violation`` (if given) so a monitor can raise immediately with
    context.  This is the single definition of RW exclusion shared by
    the production monitor and the test suite.
    """

    def __init__(
        self, on_violation: Optional[Callable[[str], None]] = None
    ) -> None:
        self.readers = 0
        self.writers = 0
        self.max_readers = 0
        self.total = 0
        self.violations: List[str] = []
        self._on_violation = on_violation

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self._on_violation is not None:
            self._on_violation(message)

    def enter(self, write: bool) -> None:
        if write:
            if self.readers or self.writers:
                self._violate(
                    f"writer entered with r={self.readers} w={self.writers}"
                )
            self.writers += 1
        else:
            if self.writers:
                self._violate(f"reader entered with w={self.writers}")
            self.readers += 1
            self.max_readers = max(self.max_readers, self.readers)

    def exit(self, write: bool) -> None:
        if write:
            if self.writers <= 0:
                self._violate("writer exit without matching enter")
            self.writers -= 1
        else:
            if self.readers <= 0:
                self._violate("reader exit without matching enter")
            self.readers -= 1
        self.total += 1

    @property
    def clean(self) -> bool:
        return not self.violations and self.readers == 0 and self.writers == 0

    def assert_clean(self) -> None:
        assert not self.violations, self.violations
        assert self.readers == 0 and self.writers == 0


# --------------------------------------------------------------------- #
# structural audits of the distributed LCU/LRT queues


def _lcu_entry_at(machine, addr: int, who) -> Optional[object]:
    if who is None or who.lcu >= len(machine.lcus):
        return None
    return machine.lcus[who.lcu].entry(who.tid, addr)


def audit_lcu_queues(machine, strict: bool = False) -> List[str]:
    """Walk every LCU/LRT structure and return a list of problems.

    Non-strict mode checks only invariants that hold at *every* event
    boundary (cycle freedom, head-token uniqueness, hardware-level
    exclusion, counter sanity); strict mode additionally requires full
    quiescence — no LCU entries and no live LRT locks at all.
    """
    problems: List[str] = []

    # Index all entries by address for the per-address checks.
    by_addr: Dict[int, List[tuple]] = {}
    for lcu in machine.lcus:
        for (addr, tid), e in lcu._entries.items():
            by_addr.setdefault(addr, []).append((lcu.lcu_id, tid, e))

    total_entries = sum(len(nodes) for nodes in by_addr.values())
    if strict and total_entries:
        problems.append(f"{total_entries} LCU entr(ies) leaked")

    for addr, nodes in sorted(by_addr.items()):
        # queue links: following ``next`` must terminate without revisits
        for lcu_id, tid, e in nodes:
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
        # hardened-mode QueueReset), not token carriers.
        heads = [
            (lcu_id, tid)
            for lcu_id, tid, e in nodes
            if e.head and e.status in (RCV, ACQ) and not e.overflow
        ]
        if len(heads) > 1:
            problems.append(
                f"multiple head-token holders on {addr:#x}: {heads}"
            )

        # hardware-level exclusion shadow + writer-holds-token
        holders = [(lcu_id, tid, e) for lcu_id, tid, e in nodes
                   if e.status == ACQ]
        write_holders = [h for h in holders if h[2].write]
        if write_holders and len(holders) > 1:
            problems.append(
                f"writer shares {addr:#x} with other holders: "
                f"{[(l, t) for l, t, _ in holders]}"
            )
        for lcu_id, tid, e in write_holders:
            if not e.head:
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

    # LRT-side counter sanity (and strict-mode occupancy)
    for lrt in machine.lrts:
        if strict:
            stray = [
                addr
                for entries in list(lrt._sets.values()) + [lrt._overflow]
                for addr in entries
                if addr not in parked
            ]
            if stray:
                problems.append(
                    f"LRT{lrt.lrt_id} still holds {len(stray)} live "
                    f"lock(s): {[hex(a) for a in stray[:8]]}"
                )
        for entries in list(lrt._sets.values()) + [lrt._overflow]:
            for e in entries.values():
                if e.reader_cnt < 0:
                    problems.append(f"negative reader_cnt: {e!r}")
                if e.writers_waiting < 0:
                    problems.append(f"negative writers_waiting: {e!r}")
                if (e.head is None) != (e.tail is None):
                    problems.append(f"half-empty queue pointers: {e!r}")
    return problems


def check_quiescent(machine, max_cycles: int = 200_000) -> None:
    """Settle in-flight traffic, then assert the machine is fully clean:
    no leaked LCU entries, no live LRT locks, structurally sane queues.
    Raises :class:`InvariantViolation` — the production form of the test
    suite's historical ``drain_and_check``."""
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

    ``audit_stride`` controls how often (in processed events) the
    structural queue audit runs; the software-level exclusion and oracle
    checks run on every lock event regardless.  ``span_tracer`` — if a
    :class:`repro.obs.SpanTracer` is recording the run, open spans are
    flushed (closed at violation time), not dropped, before an
    :class:`InvariantViolation` propagates, so the trace of a failing
    run is complete up to the failure.
    """

    def __init__(
        self,
        machine,
        algo=None,
        *,
        audit_stride: int = 64,
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
        #: runs — every hot-path use is truthiness-guarded).  A reclaim
        #: era closing is reported by the LRT as a burst of "survivor"
        #: events (buffered here per address) followed by one terminal
        #: "fenced"/"reclaim" event; see :meth:`_era_closed`.
        self._survivor_buf: Dict[int, set] = {}
        #: fencing armed: tids whose hold was voided by a fenced
        #: reclaim — their eventual stale release event is consumed
        #: (the protocol fenced it; the shadow must not double-exit)
        self._fenced_voided: Dict[Any, set] = {}
        #: sabotage mode (fencing off): stale holders the protocol
        #: reclaimed *without* fencing, tid -> write.  A conflicting
        #: later acquire proves the zombie-writer hole.
        self._reclaimed: Dict[Any, Dict[int, bool]] = {}
        self.audit_stride = max(1, audit_stride)
        self.history = history
        self.overtake_bound = overtake_bound
        self.span_tracer = span_tracer
        self._oracle_cls = RWLockOracle
        self._ring: Optional[Tracer] = None
        self._attached = False
        self._events_seen = 0
        self.trackers: Dict[Any, ExclusionTracker] = {}
        self.oracles: Dict[Any, Any] = {}
        self.stats: Dict[str, int] = {
            "lock_events": 0, "hw_events": 0, "audits": 0,
        }

    # -- lifecycle ------------------------------------------------------ #

    def attach(self) -> "InvariantMonitor":
        if self._attached:
            return self
        self._ring = Tracer.attach(self.machine, capacity=self.history)
        sim = self.machine.sim
        sim.add_probe(self._probe)
        sim.bus.lcu.append(self._on_hw_event)
        sim.bus.lrt.append(self._on_hw_event)
        if self.algo is not None:
            self.algo.add_observer(self._on_lock_event)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        sim = self.machine.sim
        sim.remove_probe(self._probe)
        sim.bus.lcu.remove(self._on_hw_event)
        sim.bus.lrt.remove(self._on_hw_event)
        if self.algo is not None:
            self.algo.remove_observer(self._on_lock_event)
        if self._ring is not None:
            self._ring.detach()
            self._ring = None
        self._attached = False

    # -- violation plumbing --------------------------------------------- #

    def recent_events(self) -> List[str]:
        if self._ring is None:
            return []
        return [r.render() for r in self._ring.records]

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
        so the software-level shadow must drop them too — otherwise the
        tracker and oracle would report a phantom holder, and a grant to
        the next waiter would look like an exclusion breach."""
        tid = thread.tid
        self._crashed_tids.add(tid)
        for handle, oracle in self.oracles.items():
            write = oracle.holders.get(tid)
            if write is not None:
                tracker = self.trackers.get(handle)
                if tracker is not None:
                    tracker.exit(write)
            oracle.crash(tid, self.machine.sim.now)

    # -- hooks ----------------------------------------------------------- #

    def _oracle_for(self, handle: Any):
        oracle = self.oracles.get(handle)
        if oracle is None:
            fair = bool(self.algo is not None and self.algo.fair)
            oracle = self._oracle_cls(
                fair=fair,
                overtake_bound=self.overtake_bound,
                on_violation=lambda msg, h=handle: self._violate(
                    "fairness", msg, handle=h
                ),
            )
            self.oracles[handle] = oracle
        return oracle

    def _on_lock_event(self, event: str, thread, handle: Any,
                       write: bool) -> None:
        self.stats["lock_events"] += 1
        now = self.machine.sim.now
        tracker = self.trackers.get(handle)
        if tracker is None:
            tracker = self.trackers[handle] = ExclusionTracker(
                on_violation=lambda msg, h=handle: self._violate(
                    "rw_exclusion", msg, handle=h
                )
            )
        oracle = self._oracle_for(handle)
        tid = thread.tid
        if event == "request":
            oracle.request(tid, write, now)
        elif event == "acquire":
            if self._reclaimed:
                self._check_zombie(handle, tid, write, now)
            if self.liveness_bound is not None:
                entry = oracle.waiting.get(tid)
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
                            handle=handle, requested=entry[2],
                            last_fault=self._last_fault_at(),
                        )
            tracker.enter(write)
            oracle.acquire(tid, write, now, excused=self._frozen_tids(now))
        elif event == "release":
            if self._fenced_voided:
                voided = self._fenced_voided.get(handle)
                if voided is not None and tid in voided:
                    # The stale release of a hold a fenced reclaim
                    # already voided: the protocol fenced it, the shadow
                    # dropped it at era close — consume, don't double-exit.
                    voided.discard(tid)
                    return
            if self._reclaimed:
                stale = self._reclaimed.get(handle)
                if stale is not None:
                    # Sabotage mode: the zombie released before anyone
                    # conflicted — the hole closed unobserved this time.
                    stale.pop(tid, None)
            tracker.exit(write)
            oracle.release(tid, write, now)
        elif event == "abandon":
            oracle.abandon(tid, now)

    def _check_zombie(self, handle: Any, tid: int, write: bool,
                      now: int) -> None:
        """An acquire is being granted while unfenced stale holders from
        a lease reclaim exist (sabotage mode).  A conflicting grant —
        any grant over a stale writer, or a write grant over any stale
        holder — is the zombie-writer exclusion hole fencing closes."""
        stale = self._reclaimed.get(handle)
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
                handle=handle,
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
            else:
                # handle is not the raw address for this algorithm:
                # credit every lock (conservative — never a false alarm)
                for oracle in self.oracles.values():
                    oracle.grant_timeout()

    def _era_closed(self, addr: int, victim_tid: int, victim_write: bool,
                    survivors: set, fenced: bool) -> None:
        """A lease reclaim of ``addr`` completed its reset handshake.
        ``survivors`` are the holds the handshake confirmed live; any
        other holder the shadow still tracks is a zombie whose hold the
        protocol revoked.  With fencing armed the zombie's token is dead
        — drop its hold from the shadow and earmark its stale release
        for consumption.  In sabotage mode nothing protects the next
        grant from it: record it so a conflicting acquire raises the
        ``zombie_writer`` violation.

        Only an oracle keyed directly by the address is touched: voiding
        is destructive, and software algorithms (whose handles are not
        addresses) never produce these events in the first place.
        """
        oracle = self.oracles.get(addr)
        if oracle is None:
            return
        now = self.machine.sim.now
        tracker = self.trackers.get(addr)
        for tid, write in list(oracle.holders.items()):
            if tid in survivors or tid in self._crashed_tids:
                continue
            if fenced:
                if tracker is not None:
                    tracker.exit(write)
                oracle.fence(tid, now)
                self._fenced_voided.setdefault(addr, set()).add(tid)
            else:
                self._reclaimed.setdefault(addr, {})[tid] = write

    def _probe(self) -> None:
        self._events_seen += 1
        if self._events_seen % self.audit_stride:
            return
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
        """End-of-run verdict: quiescent machine state plus oracle and
        tracker end-state (no holder left, nothing still waiting)."""
        try:
            check_quiescent(self.machine, max_cycles)
        except InvariantViolation:
            if self.span_tracer is not None:
                self.span_tracer.flush_open()
            raise
        for handle, tracker in self.trackers.items():
            if not tracker.clean:
                self._violate(
                    "rw_exclusion",
                    f"end state not clean: r={tracker.readers} "
                    f"w={tracker.writers} violations={tracker.violations}",
                    handle=handle,
                )
        if self.liveness_bound is not None:
            now = self.machine.sim.now
            for handle, oracle in self.oracles.items():
                for tid, (_seq, write, req_time) in oracle.waiting.items():
                    if tid in self._crashed_tids:
                        continue
                    start = max(req_time, self._last_fault_at())
                    if now - start > self.liveness_bound:
                        self._violate_liveness(
                            f"tid {tid} still waiting for a "
                            f"{'write' if write else 'read'} grant "
                            f"{now - start} cycles after the last fault "
                            f"(bound {self.liveness_bound})",
                            handle=handle, requested=req_time,
                            last_fault=self._last_fault_at(),
                        )
        for handle, oracle in self.oracles.items():
            leftover = oracle.end_state_problems()
            if leftover:
                self._violate("oracle", leftover[0], handle=handle)
