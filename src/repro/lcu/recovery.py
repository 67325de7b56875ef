"""The recovery layer: LCU and LRT fault tolerance on top of Section III.

The base units (:mod:`repro.lcu.lcu`, :mod:`repro.lcu.lrt`) implement
only the paper's protocol and raise :class:`ProtocolError` on anything
a fault-free run never produces.  ``Machine.harden()`` rebinds every
unit to the subclasses here, so an unfaulted run executes none of this
code.  Each recovery policy lives in this module:

* fault surfaces: forced queue-node and FLT eviction, capacity clamps,
  crash/restart and the crash purge;
* eviction tombstones, which hold a re-request back until the reclaim;
* reclaim: the generation jumps by :data:`RECLAIM_GEN_STRIDE` to the
  address's reclaim floor (``_gen_floor`` at the LRT, ``_reset_gen`` at
  each LCU), and a QueueReset handshake collects the surviving holders;
* the watchdog: one silence clock per lock, restarted by every message
  and every grant, with a probe ladder that the heartbeat failure
  detector stretches for cores that keep beating;
* fencing: a release whose ``gen`` is below the floor is answered with
  FencedOperation, and a core that missed a reset is refused until it
  acknowledges it (the rejoin gate);
* the watermark ``_gen_high``, which restarts a re-installed lock above
  its previous queue episode.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.lcu import messages as msg
from repro.lcu.entry import ACQ, ISSUED, ORDINARY, RCV, RD_REL, REL, WAIT
from repro.lcu.lcu import _LCU_HANDLERS, LockControlUnit, ProtocolError
from repro.lcu.lrt import _LRT_HANDLERS, LockReservationTable, LrtEntry
from repro.lcu.messages import Who

# Generation stride applied by an LRT queue reclaim.  Reclaim opens a new
# *era* for the lock; the stride is far larger than the transfer-count lag
# an LRT can accumulate against in-flight LCU-side transfers, so every
# old-era generation compares below every new-era one and stale grants /
# forwards can be recognised and dropped.
RECLAIM_GEN_STRIDE = 1024

# Probe / revocation handshake.  A probe that goes unanswered is retried
# with exponential backoff; after the cap the probed head is declared
# dead and the queue is revoked.  A reclaim's QueueReset broadcast is
# likewise re-sent to unresponsive LCUs, and after the cap the reclaim
# completes with the survivors it heard from (graceful degradation —
# unreachable in-model unless an LCU dies *between* the broadcast and
# the crash notification).
_PROBE_TIMEOUT = 2_000        # cycles before a probe retry
_PROBE_TIMEOUT_CAP = 8_000
_PROBE_MAX_ATTEMPTS = 3
_RESET_RETRY_BACKOFF = 5_000  # cycles before re-broadcasting a reset
_RESET_RETRY_CAP = 40_000
_RESET_MAX_ATTEMPTS = 8

# Suspicion-level failure detector (gray-failure hardening).  When the
# fault harness arms heartbeats (machine.start_heartbeats), each LRT
# counts missed beats per core: suspicion = missed intervals, clamped to
# the maximum.  A fully suspected core (partitioned, zombied, crashed)
# is probed with the original fast ladder; a core that keeps beating is
# probed with delays stretched by its remaining innocence — a *slow*
# core must be waited out, not reclaimed.  Without heartbeat tracking
# every core is maximally suspect, which reproduces the pre-detector
# probe timings exactly (crash-class plans never arm heartbeats).
_SUSPICION_MAX = 8
_PROBE_PATIENCE_CAP = 30_000
# With the detector armed, a reset broadcast whose unacked cores are all
# maximally suspect force-completes after this many attempts instead of
# _RESET_MAX_ATTEMPTS: the missing acks are from cores that are silent
# to *everyone*, and the reliable layer redelivers the reset after heal.
_RESET_SUSPECT_ATTEMPTS = 3

def _bump(stats: Dict[str, int], key: str, n: int = 1) -> None:
    stats[key] = stats.get(key, 0) + n


_RECOVERING_LCU_HANDLERS: dict = {
    **_LCU_HANDLERS,
    msg.QueueReset: "_on_queue_reset",
    msg.QueueProbe: "_on_queue_probe",
    msg.FencedOperation: "_on_fenced",
}
#: a crashed LCU drops every message it would otherwise handle
_DEAD_LCU_HANDLERS: dict = dict.fromkeys(_RECOVERING_LCU_HANDLERS, "_on_dead")
_RECOVERING_LRT_HANDLERS: dict = {
    **_LRT_HANDLERS,
    msg.GrantNack: "_on_grant_nack",
    msg.QueueResetAck: "_on_reset_ack",
    msg.QueueProbeAck: "_on_probe_ack",
}


def install(
    lcus, lrts, watchdog_interval: int, silence_threshold: int,
    fencing: bool,
) -> None:
    """Make existing base units recovering ones, in place: whoever holds
    a unit keeps the same object."""
    for lcu in lcus:
        lcu.__class__ = RecoveringLCU
        lcu._arm(fencing)
    for lrt in lrts:
        lrt.__class__ = RecoveringLRT
        lrt._arm(watchdog_interval, silence_threshold, fencing)


class RecoveringLCU(LockControlUnit):
    """An LCU that treats protocol-bug symptoms (a grant for a missing
    entry, a stale forward) as recoverable fault symptoms, answers the
    LRT's reclaim and probe traffic, and offers the fault surfaces."""

    def _arm(self, fencing: bool) -> None:
        #: fence tokens armed: a dead-era forward is answered with a
        #: FencedOperation; ``False`` is the sabotage mode (see
        #: ``repro faults --no-fencing``)
        self._fencing = fencing
        #: crash-stop fault: a dead LCU drops every message and serves no
        #: instructions until :meth:`restart` (see machine.crash_core)
        self.dead = False
        #: addr -> generation of the last QueueReset seen; messages from
        #: earlier eras are stale and must be dropped, not acted on
        self._reset_gen: Dict[int, int] = {}
        #: fault-injection pressure: None, or a temporary cap (< config)
        #: on the ordinary entry pool (models resource exhaustion)
        self._forced_capacity: Optional[int] = None
        #: (addr, tid) pairs whose queue node was forcibly evicted and is
        #: still dead weight in the LRT's queue: re-requesting before the
        #: reclaim's QueueReset would enqueue the same node twice
        self._evicted: Set[tuple] = set()
        self._handlers = _RECOVERING_LCU_HANDLERS

    # ------------------------------------------------------------------ #
    # fault injection surface

    def set_forced_capacity(self, limit: Optional[int]) -> None:
        """Temporarily cap the ordinary entry pool (``None`` restores the
        configured size) — models entry-table resource exhaustion."""
        self._forced_capacity = limit
        cap = self._config.lcu_ordinary_entries
        self._ordinary_cap = cap if limit is None else min(cap, limit)

    def evictable_entries(self) -> list:
        """(addr, tid) pairs whose forced eviction is a *recoverable*
        fault: waiting queue nodes that hold neither the lock nor the
        Head token.  Evicting a holder would lose the lock itself, which
        no protocol can undo — real eviction hardware has the same
        restriction (only non-owning entries are victim candidates)."""
        return [
            key
            for key, e in self._entries.items()
            if e.status in (ISSUED, WAIT) and not e.head and e.kind == ORDINARY
        ]

    def force_evict(self, addr: int, tid: int) -> bool:
        """Forcibly drop a waiting queue node (fault injection).  The
        queue is now silently broken: recovery happens when a grant or
        forward reaches the dead node (GrantNack -> LRT reclaim) or the
        LRT's idle-queue watchdog notices the silence."""
        e = self._entries.get((addr, tid))
        if e is None or e.status not in (ISSUED, WAIT) or e.head:
            return False
        _bump(self.stats, "forced_evictions")
        if self._subs:
            self._emit("evict", addr, tid, e.write)
        # Tombstone until the queue is reclaimed: the dead node is still
        # linked at the LRT, so a re-request now would put the same
        # (lcu, tid) in the queue twice.  Must happen before _free — the
        # freed entry's signal wakes the spinning thread, which retries
        # its acquire in the same cycle.
        self._evicted.add((addr, tid))
        self._free(e)
        return True

    def force_flt_evict(self, addr: Optional[int] = None) -> bool:
        """Evict a parked Free Lock Table lock (fault injection): the
        invisible release becomes visible — the park is flushed to the
        LRT as an ordinary release, exactly what FLT capacity pressure
        does in hardware.  Returns False when nothing could be evicted."""
        if addr is None:
            if not self._flt:
                return False
            addr = next(iter(self._flt))
        parked = self._flt.get(addr)
        if parked is None:
            return False
        tid, write, gen = parked
        e = self._alloc(addr, tid, write, for_release=True)
        if e is None:
            return False  # no room to materialise the release; keep park
        del self._flt[addr]
        e.status = REL
        e.gen = gen
        _bump(self.stats, "flt_forced_evictions")
        self._send_lrt(
            addr, msg.ReleaseMsg(addr, Who(tid, self.lcu_id, write), False, gen)
        )
        return True

    def _alloc(self, addr: int, tid: int, write: bool, for_release=False):
        if not for_release and (addr, tid) in self._evicted:
            # Forcibly-evicted node still queued at the LRT: hold off
            # re-requesting until the reclaim's QueueReset clears it
            # (a grant/forward hitting the dead node, or the idle
            # watchdog, triggers that reclaim).
            _bump(self.stats, "tombstoned_acqs")
            return None
        return super()._alloc(addr, tid, write, for_release)

    # ------------------------------------------------------------------ #
    # crash-stop faults (repro.faults crash_core / restart_core)

    def homed_tids(self) -> Set[int]:
        """Tids with lock state recorded at this LCU — a queue entry, a
        held-generation record, an overflow grant, or an FLT park.
        Empty iff crashing this unit would wipe no lock state (the
        "busy" crash victim policy asks exactly this)."""
        homed: Set[int] = {tid for (_addr, tid) in self._entries}
        homed |= {tid for (_addr, tid) in self._held_gen}
        homed |= {tid for (_addr, tid) in self._overflow_grants}
        homed |= {tid for (tid, _w, _g) in self._flt.values()}
        return homed

    def crash(self) -> Set[int]:
        """Crash-stop: this LCU dies, losing every entry, held-generation
        record, overflow grant and FLT park.  While dead it drops all
        protocol messages (counted in ``dead_drops``) — the LRT's
        watchdog and crash notifications recover the orphaned queues.
        Returns the tids whose lock state was homed here: each provably
        has no other record of holding or queueing on the wiped locks,
        so the caller kills those threads too (crash model: software and
        hardware state die together, making revocation safe)."""
        self.dead = True
        self._handlers = _DEAD_LCU_HANDLERS
        _bump(self.stats, "crashes")
        homed = self.homed_tids()
        self._entries.clear()
        self._ordinary_in_use = 0
        self._local_in_use = False
        self._remote_in_use = False
        self._overflow_grants.clear()
        self._held_gen.clear()
        self._flt.clear()
        self._evicted.clear()
        self._reset_gen.clear()
        self._signals.clear()
        return homed

    def restart(self) -> None:
        """Rebirth after :meth:`crash`: the unit comes back with an empty
        table and resumes serving messages.  Era fencing against stale
        pre-crash frames is re-established by the first QueueReset of
        each reclaimed lock (``_reset_gen`` repopulates from it)."""
        self.dead = False
        self._handlers = _RECOVERING_LCU_HANDLERS

    def _on_dead(self, _m: object) -> None:
        # Crashed core: the unit neither processes nor answers.  Senders
        # recover via the LRT's crash notification / watchdog, never by
        # retransmitting into a dead node.
        _bump(self.stats, "dead_drops")

    def purge_dead_tids(self, dead: Set[int]) -> None:
        """Release, on their behalf, locks held *at this live LCU* by
        threads that died in a core crash elsewhere (the migrated-holder
        case).  ACQ entries release immediately; invisible holds
        (held-generation records, FLT parks, overflow grants) are
        materialised as ordinary releases.  RCV/ISSUED/WAIT entries of
        dead threads are left to the grant timer, which already forwards
        unclaimed grants of absent threads (paper III-C)."""
        if self.dead:
            return
        for key, e in list(self._entries.items()):
            if e.tid in dead and e.status == ACQ:
                _bump(self.stats, "crash_releases")
                if self._subs:
                    self._emit("release", e.addr, e.tid, e.write)
                self._release_entry(e)
        for addr in [
            a for a, (tid, _w, _g) in self._flt.items() if tid in dead
        ]:
            if not self.force_flt_evict(addr):
                self._retry_purge(dead)
        for key in [k for k in self._held_gen if k[1] in dead]:
            addr, tid = key
            gen, write = self._held_gen[key]
            e = self._alloc(addr, tid, write, for_release=True)
            if e is None:
                self._retry_purge(dead)
                continue
            del self._held_gen[key]
            e.status = REL
            e.gen = gen
            _bump(self.stats, "crash_releases")
            if self._subs:
                self._emit("release", addr, tid, write)
            self._send_lrt(
                addr,
                msg.ReleaseMsg(addr, Who(tid, self.lcu_id, write), False, gen),
            )
        for key in [k for k in self._overflow_grants if k[1] in dead]:
            addr, tid = key
            e = self._alloc(addr, tid, False, for_release=True)
            if e is None:
                self._retry_purge(dead)
                continue
            self._overflow_grants.discard(key)
            e.status = REL
            e.overflow = True
            _bump(self.stats, "crash_releases")
            if self._subs:
                self._emit("release", addr, tid, False)
            self._send_lrt(
                addr, msg.ReleaseMsg(addr, Who(tid, self.lcu_id, False), True)
            )

    def _retry_purge(self, dead: Set[int]) -> None:
        """Entry pool momentarily full while materialising a dead
        thread's release: retry once entries have drained."""
        _bump(self.stats, "crash_purge_retries")
        self._sim.after(500, lambda: self.purge_dead_tids(dead))

    # ------------------------------------------------------------------ #
    # base handlers with fault symptoms

    def _on_grant(self, m: msg.Grant) -> None:
        if m.gen < self._reset_gen.get(m.addr, 0):
            # Stale-era grant: its queue was reclaimed.  Acting on it
            # could put a second Head token in circulation — drop it.
            _bump(self.stats, "stale_grants_dropped")
            return
        if (m.addr, m.tid) not in self._entries:
            # The queue node this grant targeted is gone (forced
            # eviction).  Bounce it to the LRT: a lost *head* grant
            # means the Head token died with the node, and the LRT
            # must reclaim the orphaned queue.
            _bump(self.stats, "grant_nacks")
            self._send_lrt(
                m.addr, msg.GrantNack(m.addr, m.tid, self.lcu_id, m.gen, m.head)
            )
            return
        super()._on_grant(m)

    def _on_fwd(self, m: msg.FwdRequest) -> None:
        if m.gen < self._reset_gen.get(m.addr, 0):
            # Forward from a reclaimed era: the requestor was rescued by
            # the QueueReset broadcast and has re-requested; linking it
            # into the new-era queue through a dead tail would corrupt it.
            _bump(self.stats, "stale_fwds_dropped")
            if self._fencing:
                # Tell the requestor its enqueue died with the old era.
                self._send_lcu(
                    m.req.lcu, msg.FencedOperation(m.addr, m.req.tid, "fwd")
                )
            return
        key = (m.addr, m.tail_tid)
        e = self._entries.get(key)
        if self._flt_handover(m, e) is None:
            if e is None and key not in self._held_gen:
                # No entry, no held-generation record, no FLT park: this
                # LCU has no trace of the named tail *holding* anything.
                # In a fault-free run re-allocation always finds one of
                # the three, so the tail node must have been lost to a
                # fault the LRT has not noticed yet.  Re-allocating would
                # fabricate a phantom holder; nack with ``phantom`` set
                # so the LRT reclaims the broken chain instead of
                # retrying (a retry could only false-match a newer node
                # reusing this (addr, tid) key).
                _bump(self.stats, "phantom_fwds_refused")
                self.stats["fwd_nacks"] += 1
                self._send_lrt(m.addr, msg.FwdNack(m.addr, m, phantom=True))
                return
            if e is not None and e.next is not None:
                if e.next != m.req:
                    # Stale forward racing a reclaim: the tail was
                    # re-linked in a newer era.  Drop it — the requestor
                    # either was or will be rescued by the era's
                    # QueueReset.  (An equal successor is a duplicate
                    # forward: already linked.)
                    _bump(self.stats, "stale_fwds_dropped")
                return
        super()._on_fwd(m)

    def _on_retry(self, m: msg.Retry) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is not None and e.status != ISSUED:
            # A reclaim raced this RETRY: the entry it addressed is a
            # newer incarnation.  Ignore.
            self.stats["retries_received"] += 1
            return
        super()._on_retry(m)

    # ------------------------------------------------------------------ #
    # recovery messages

    def _on_queue_reset(self, m: msg.QueueReset) -> None:
        """The LRT reclaimed this lock's orphaned queue.  Open the new
        era locally, drop our dead-era queue nodes (waking their threads
        so they re-request), and convert live holders into LRT-accounted
        overflow holders so the new era cannot grant a writer over them.
        Replies with the holder count the LRT must add to ``reader_cnt``.
        """
        self._reset_gen[m.addr] = max(self._reset_gen.get(m.addr, 0), m.gen)
        # The reclaim unlinked every node of this address: evicted
        # tombstones are now safe to re-request through.
        self._evicted = {k for k in self._evicted if k[0] != m.addr}
        readers = 0
        survivor = -1
        # Every surviving read hold at this LCU, by tid — converted ones
        # *and* pre-existing overflow holders.  ``readers`` stays the
        # conversion count (it alone feeds reader_cnt); the tid set goes
        # to the invariant monitor so it can tell survivors from
        # zombies when the era closes.
        survivor_readers = {
            tid for (a, tid) in self._overflow_grants if a == m.addr
        }
        for (addr, tid), e in list(self._entries.items()):
            if addr != m.addr:
                continue
            if e.overflow:
                if e.status in (ACQ, RCV):
                    survivor_readers.add(tid)
                continue  # already LRT-accounted; its release is safe
            if e.status in (ISSUED, WAIT, RD_REL, REL):
                # Dead-era waiters and completed releases: drop.  Waiter
                # threads wake via the entry signal and re-request into
                # the new era; a "evict" event widens the fairness
                # oracle's overtake budget for the queue jump.
                if self._subs and e.status in (ISSUED, WAIT):
                    self._emit("evict", addr, tid, e.write)
                _bump(self.stats, "reset_freed")
                self._free(e)
            elif e.status == ACQ and not e.write:
                # A reader inside its critical section: convert to an
                # overflow-style holder.  Its release then reaches the
                # LRT as an overflow release instead of vanishing as a
                # silent RD_REL, so draining is observable.
                e.overflow = True
                e.head = True       # release path: REL + ReleaseMsg
                e.next = None
                e.gen = max(e.gen, m.gen)
                readers += 1
                survivor_readers.add(tid)
            elif e.status == RCV and not e.write and not e.pending_ovf:
                # Share grant received but not yet claimed: same
                # conversion; both the claim path and the grant timer
                # already handle overflow-mode entries.
                e.overflow = True
                e.head = False
                e.next = None
                e.gen = max(e.gen, m.gen)
                readers += 1
                survivor_readers.add(tid)
            elif e.status == RCV and e.write and e.pending_ovf:
                # A granted writer still awaiting OvfClear: its clearance
                # died with the old era.  It never held the lock — drop
                # it and let the thread re-request.
                if self._subs:
                    self._emit("evict", addr, tid, e.write)
                _bump(self.stats, "reset_freed")
                self._free(e)
            elif e.write and e.status in (ACQ, RCV):
                # A live writer owning the lock (or the just-delivered
                # Head token): the reclaim was triggered by a dead tail
                # or middle node, not by this holder.  Its next-chain
                # died with the old era — sever it, adopt the new
                # generation, and report the hold so the LRT re-seats
                # this writer as the new era's queue head.
                e.next = None
                e.head = True
                e.gen = max(e.gen, m.gen)
                survivor = tid
        # Invisible holds have no entry but still own the lock: surface
        # them too, or the new era would grant over a live hold.
        for key in [k for k in self._held_gen if k[0] == m.addr]:
            _gen, w = self._held_gen[key]
            if w:
                # Held-generation writer: keep the record (its release
                # path is unchanged) and re-seat it at the LRT; future
                # forwards re-allocate its entry (paper Figure 4b).
                survivor = key[1]
            else:
                # Held-generation reader: convert to an overflow grant
                # so the release is LRT-visible and drains reader_cnt.
                del self._held_gen[key]
                self._overflow_grants.add(key)
                readers += 1
                survivor_readers.add(key[1])
        if self._flt.get(m.addr) is not None:
            # An FLT park is a *released* lock kept locally biased; the
            # new era starts from a clean table, so drop the bias (the
            # next local acquire simply re-requests).
            del self._flt[m.addr]
            _bump(self.stats, "reset_unparked")
        self._send_lrt(
            m.addr,
            msg.QueueResetAck(
                m.addr, self.lcu_id, readers, survivor,
                reader_tids=tuple(sorted(survivor_readers)),
            ),
        )

    def _on_fenced(self, m: msg.FencedOperation) -> None:
        """A fence rejection: an operation this LCU issued for
        ``(addr, tid)`` carried a dead-era token — the hold it believed
        in was reclaimed while the core was stalled or partitioned away.

        Only a fenced *release* clears local state: the stale hold's
        entry-less records die and the REL entry is freed so the
        thread's release completes (no ack will ever come) and it
        re-acquires through a fresh request.  A fenced *forward* is
        informational — the QueueReset broadcast already rescued the
        requestor, and by the time this arrives the (addr, tid) key
        usually holds its live re-request, which must not be touched
        (same newer-incarnation rule as ``_on_dealloc``).

        The thread may equally have re-acquired the *lock* before the
        fence for its pre-stall release arrives, so every drop is
        gen-guarded: only state at or below the fenced token's ``gen``
        belongs to the stale hold.  Overflow records are never touched
        — overflow releases are exempt from fencing entirely."""
        key = (m.addr, m.tid)
        _bump(self.stats, "fenced_ops")
        if m.op != "release":
            return
        held = self._held_gen.get(key)
        if held is not None and (m.gen < 0 or held[0] <= m.gen):
            del self._held_gen[key]
        e = self._entries.get(key)
        if (
            e is not None and e.status == REL
            and (m.gen < 0 or e.gen <= m.gen)
        ):
            self._free(e)

    def _on_queue_probe(self, m: msg.QueueProbe) -> None:
        """Idle-queue watchdog asking whether the queue head node this
        LCU supposedly hosts is still alive.  'Alive' includes the two
        entry-less holding states: a deallocated uncontended owner
        (held-generation record) and an FLT-parked lock.  ``holding``
        additionally reports whether the node *owns* the lock right now
        (ACQ/RCV or an invisible hold) — the watchdog only revokes a
        silent queue whose probed head is alive but provably not holding
        (a REL/WAIT remnant in front of a crashed middle node); revoking
        a live holder could put two writers in the section."""
        key = (m.addr, m.tid)
        e = self._entries.get(key)
        held = (
            key in self._held_gen
            or key in self._overflow_grants
            or (
                self._flt.get(m.addr) is not None
                and self._flt[m.addr][0] == m.tid
            )
        )
        alive = e is not None or held
        holding = held or (e is not None and e.status in (ACQ, RCV))
        self._send_lrt(
            m.addr, msg.QueueProbeAck(m.addr, m.tid, alive, holding)
        )


class RecoveryLrtEntry(LrtEntry):
    """An LRT entry with the recovery layer's per-lock state."""

    __slots__ = (
        "last_activity", "reset_pending", "probing",
        "probe_seq", "probe_attempts", "last_alive_probe",
        "reset_seq", "reset_attempts", "reset_survivor",
        "reclaim_victim", "reset_reader_tids",
    )

    def __init__(self, addr: int) -> None:
        super().__init__(addr)
        # cycle of the last message or grant touching this lock
        # (watchdog orphan detection), the set of LCU ids whose
        # QueueResetAck is still outstanding, and whether a liveness
        # probe is already in flight
        self.last_activity = 0
        self.reset_pending: set = set()
        self.probing = False
        # probe retry bookkeeping (seq invalidates stale timeout events,
        # attempts cap the retries); the snapshot of the last
        # alive-but-not-holding probe answer (two identical snapshots a
        # full silent window apart == the queue is wedged behind crashed
        # state -> revoke); reset re-broadcast bookkeeping for the
        # revocation handshake.
        self.probe_seq = 0
        self.probe_attempts = 0
        self.last_alive_probe: Optional[tuple] = None
        self.reset_seq = 0
        self.reset_attempts = 0
        # live writer reported by a QueueResetAck: re-seated as the new
        # era's queue head when the reset completes (see _reset_complete)
        self.reset_survivor: Optional[Who] = None
        # gray-failure fencing bookkeeping: the queue head whose hold
        # the in-flight reclaim revoked (the fence victim unless it is
        # re-seated), and the read holders live LCUs enumerated in their
        # acks (everything else holding this lock is fenced out)
        self.reclaim_victim: Optional[Who] = None
        self.reset_reader_tids: set = set()


class RecoveringLRT(LockReservationTable):
    """An LRT that tolerates the message anomalies the nemesis injects
    (stray releases, stale notifications, dead queue nodes), reclaims
    orphaned queues and fences zombie holders."""

    def _arm(
        self, watchdog_interval: int, silence_threshold: int, fencing: bool,
    ) -> None:
        #: fencing armed: releases bearing a generation below the
        #: reclaim floor are rejected with a structured FencedOperation
        #: instead of acked idempotently.  ``False`` is the sabotage mode
        #: the zombie-writer invariant check must catch.
        self._fencing = fencing
        self._watchdog_interval = watchdog_interval
        self._silence_threshold = silence_threshold
        # suspicion-level failure detector (enable_failure_detector):
        # core -> cycle of the last heartbeat received here
        self._hb_on = False
        self._hb_interval = 0
        self._last_heartbeat: Dict[int, int] = {}
        #: cores whose LCU has crashed (machine.crash_core notifies every
        #: LRT synchronously): reclaims skip them in reset broadcasts,
        #: and a queue whose head/tail lived there is revoked on the spot
        self._dead_cores: set = set()
        self._reclaim_started: Dict[int, int] = {}
        #: addr -> the last reclaim's generation: the reclaim floor.
        #: Traffic below it belongs to a reclaimed era (dropped, or
        #: fenced for releases); only reclaims write here, and it
        #: persists across entry removal like the LCUs' ``_reset_gen``.
        self._gen_floor: Dict[int, int] = {}
        #: addr -> highest generation ever issued: recorded when an
        #: entry is fully removed so a later reinstall resumes *above*
        #: every gen of the previous queue episode.  Without this, gens
        #: restart at 1 and a delayed message from the old episode (e.g.
        #: a retransmitted HeadNotify with gen=9) outranks the fresh
        #: queue's gens, corrupting the head pointer and routing a
        #: Dealloc to the wrong LCU.  Distinct from ``_gen_floor``: the
        #: floor also fences releases, and a benign late duplicate
        #: release from the old episode must be *acked*, not fenced.
        self._gen_high: Dict[int, int] = {}
        #: addr -> cores whose QueueReset ack never arrived before the
        #: handshake force-completed (zombie / partitioned-away LCUs).
        #: Until such a core's late ack finally lands — the reliable
        #: layer keeps retransmitting the reset across the heal — its
        #: requests for the address are refused with Retry: the rejoin
        #: is *fenced*, because the core still carries dead-era queue
        #: nodes, and enqueuing its fresh request before it processes
        #: the reset lets the stale reset kill the new entry and the
        #: re-re-request self-link the queue.
        self._unsynced: Dict[int, set] = {}
        #: cycles from orphan detection to fully acknowledged reset —
        #: harvested into the recovery-latency histogram (repro.obs)
        self.recovery_latencies: list = []
        # Locks already live keep their Section III state; their silence
        # clock starts at zero, like that of any entry never touched.
        for store in list(self._sets.values()) + [self._overflow]:
            for addr, old in list(store.items()):
                store[addr] = e = RecoveryLrtEntry(addr)
                for name in LrtEntry.__slots__:
                    setattr(e, name, getattr(old, name))
        self._sim.after(watchdog_interval, self._watchdog_tick)

    # ------------------------------------------------------------------ #
    # base machinery with recovery state

    def _new_entry(self, addr: int) -> RecoveryLrtEntry:
        e = RecoveryLrtEntry(addr)
        # Resume above the previous queue episode (and so above any
        # reclaim floor) so its delayed traffic can never outrank fresh
        # grants.  The install is the first grant's activity.
        e.gen = self._gen_high.get(addr, 0)
        e.last_activity = self._sim.now
        return e

    def _remove(self, addr: int) -> None:
        e = self.entry(addr)
        if e is not None and e.gen > self._gen_high.get(addr, 0):
            self._gen_high[addr] = e.gen
        super()._remove(addr)

    def _process(self, m: object) -> None:
        e = self.entry(m.addr)  # type: ignore[attr-defined]
        if e is not None:
            e.last_activity = self._sim.now
        h = _RECOVERING_LRT_HANDLERS.get(m.__class__)
        if h is None:
            raise ProtocolError(f"LRT{self.lrt_id}: unexpected message {m!r}")
        getattr(self, h)(m)

    def _on_heartbeat(self, m: msg.Heartbeat) -> None:
        self._last_heartbeat[m.core] = self._sim.now

    def _finalize(self, e: RecoveryLrtEntry) -> None:
        # A reclaim in progress keeps the entry alive until every LCU
        # has acknowledged the reset.
        if not e.reset_pending:
            super()._finalize(e)

    def _stray_release(self, m: msg.ReleaseMsg) -> None:
        # The holder is done either way; acking keeps the releasing
        # entry from leaking.
        _bump(self.stats, "stray_releases")
        self._send_lcu(m.rel.lcu, msg.ReleaseAck(m.addr, m.rel.tid))

    # ------------------------------------------------------------------ #
    # base handlers with fault symptoms

    def _on_request(self, m: msg.Request) -> None:
        e = self.entry(m.addr)
        if e is not None and e.reset_pending:
            # Mid-reclaim: surviving reader counts are still being
            # collected, so a grant issued now could skip the overflow
            # drain.  Refuse; the software layer re-requests.
            self.stats["requests"] += 1
            self._retry(m.req, m.addr, m.seq)
            return
        synced = self._unsynced.get(m.addr)
        if synced and m.req.lcu in synced:
            # Fenced rejoin: the requesting core never acknowledged the
            # reset that closed its era and still carries dead-era
            # nodes.  Refuse until its late QueueResetAck lands (the
            # reliable channel delivers the reset before this Retry,
            # and the ack before the re-request, so the gate lifts in
            # bounded time).
            self.stats["requests"] += 1
            _bump(self.stats, "rejoin_retries")
            self._retry(m.req, m.addr, m.seq)
            return
        super()._on_request(m)

    def _on_release(self, m: msg.ReleaseMsg) -> None:
        e = self.entry(m.addr)
        if self._fenced_release(e, m):
            self.stats["releases"] += 1
            return
        if e is None:
            # A release whose lock state is gone (reclaimed, or the
            # queue drained through another path while this message was
            # delayed).
            self.stats["releases"] += 1
            self._stray_release(m)
            return
        if e.reset_survivor is not None and e.reset_survivor.tid == m.rel.tid:
            # The surviving writer a reset ack reported released while
            # the handshake was still collecting: its hold is over, so
            # it must not be re-seated as the new era's head (a stale
            # re-seat self-links on its next request).
            e.reset_survivor = None
        stray = e.reader_cnt <= 0 if m.overflow else e.head is None
        if stray:
            # A duplicate overflow release (wire dup, or a convert-then-
            # drain race: the count already reflects it), or a queue
            # reclaimed out from under a holder we did not know about.
            self.stats["releases"] += 1
            e = self._install(m.addr)
            self._stray_release(m)
            if not m.overflow:
                self._drained_check(e)
            return
        super()._on_release(m)

    def _fenced_release(
        self, e: Optional[RecoveryLrtEntry], m: msg.ReleaseMsg
    ) -> bool:
        """Fence-token check on a release (gray-failure hardening).

        A release whose ``gen`` predates the address's reclaim floor was
        issued under a hold that has since been reclaimed — its sender
        is a zombie that stalled through the silence window and resumed.
        Answering it with a plain ack would silently absorb the stale
        hold; instead the releaser gets a structured
        :class:`~repro.lcu.messages.FencedOperation` so its thread is
        routed through a fresh acquire.

        Exemptions (legitimate old-gen releases that must NOT fence):

        * overflow releases — overflow accounting is already idempotent,
          and fencing one would wedge the ``reader_cnt`` drain a reset
          re-credited;
        * mid-reset (``reset_pending``) — no grants are issued during
          the handshake, so there is no exclusion at risk; the existing
          stray-ack / survivor machinery owns these races;
        * the current head or the reset survivor — a live holder that
          the reclaim re-seated keeps its pre-reset generation.
        """
        if (
            not self._fencing
            or m.overflow
            or m.gen < 0                         # wildcard
            or m.gen >= self._gen_floor.get(m.addr, 0)
        ):
            return False
        rel = m.rel
        if e is not None:
            if e.reset_pending:
                return False
            if e.head is not None and (e.head.tid, e.head.lcu) == (
                rel.tid, rel.lcu,
            ):
                return False
            if e.reset_survivor is not None and e.reset_survivor.tid == rel.tid:
                return False
        _bump(self.stats, "fenced_releases")
        self._send_lcu(
            rel.lcu,
            msg.FencedOperation(m.addr, rel.tid, "release", gen=m.gen),
        )
        return True

    def _on_head_notify(self, m: msg.HeadNotify) -> None:
        e = self.entry(m.addr)
        if e is not None and m.gen >= self._gen_floor.get(m.addr, 0):
            super()._on_head_notify(m)
            return
        # A delayed notification for a lock that has since been fully
        # released or reclaimed, or a dead-era one racing the reset
        # broadcast: the queue it describes no longer exists.  Reclaim
        # the notifier's REL entry and move on.
        self.stats["head_notifies"] += 1
        if e is not None:
            self._install(m.addr)
        self.stats["stale_notifies"] += 1
        self._send_lcu(m.new.lcu, msg.Dealloc(m.addr, m.new.tid))

    def _on_fwd_nack(self, m: msg.FwdNack) -> None:
        e = self.entry(m.addr)
        if e is None or m.original.gen < self._gen_floor.get(m.addr, 0):
            # The forward referenced a dead-era tail: the forwarded
            # requestor's WAIT node died with the old era (the
            # QueueReset broadcast frees it and wakes the thread);
            # nothing to redeliver.
            _bump(self.stats, "stale_fwds_dropped")
            return
        if m.phantom:
            # Current-era phantom: the target LCU has no trace of the
            # named tail holding anything, and that state cannot
            # reappear — the queue chain is broken at this link for
            # good.  Retrying would eventually false-match a *newer*
            # entry that reuses the tail's (addr, tid) key (e.g. the
            # healed zombie's next request), splicing a stale link into
            # the live queue and closing a cycle.  Reclaim instead: the
            # reset frees every waiter (including the forwarded
            # requestor) to re-enter the new era cleanly.
            self._reclaim(self._install(m.addr), "phantom_tail")
            return
        super()._on_fwd_nack(m)

    def _unresolved_remote_release(self, m: msg.RemoteReleaseNack) -> None:
        # The walked-for node is unreachable — under fault injection
        # that means it died with a reclaimed era.  The release is moot;
        # ack the origin so its REL entry frees, and let the watchdog
        # reclaim the queue if it is truly wedged.
        _bump(self.stats, "unresolved_remote_releases")
        self._send_lcu(m.origin_lcu, msg.ReleaseAck(m.addr, m.target_tid))

    # ------------------------------------------------------------------ #
    # failure detection

    def enable_failure_detector(self, interval: int) -> None:
        """Arm the suspicion-level failure detector: the machine is
        about to start per-core heartbeats every ``interval`` cycles
        (machine.start_heartbeats).  Probe and reset ladders scale with
        per-core suspicion from now on; without this call every core is
        maximally suspect and the ladders match the pre-detector timing
        exactly."""
        self._hb_on = True
        self._hb_interval = interval

    def _suspicion_of(self, core: int) -> int:
        """Missed-heartbeat count for ``core``, clamped to
        ``_SUSPICION_MAX``.  Maximal when the detector is disarmed or
        the core has never been heard from."""
        if not self._hb_on:
            return _SUSPICION_MAX
        last = self._last_heartbeat.get(core)
        if last is None:
            return _SUSPICION_MAX
        missed = (self._sim.now - last) // self._hb_interval
        return missed if missed < _SUSPICION_MAX else _SUSPICION_MAX

    def note_dead_core(self, core: int) -> None:
        """Crash notification (machine.crash_core, synchronous): core
        ``core``'s LCU died with all its state.  Revoke every queue that
        runs through it — a head or tail homed there is gone, and grants
        or forwards sent to it vanish — and stop waiting for its
        acknowledgements in any in-flight revocation handshake."""
        self._dead_cores.add(core)
        _bump(self.stats, "dead_core_notes")
        # A crash voids the rejoin gate: the dead-era nodes died with
        # the LCU, and the late ack the gate waits for can never come.
        for synced in self._unsynced.values():
            synced.discard(core)
        for store in list(self._sets.values()) + [self._overflow]:
            for e in list(store.values()):
                if core in e.reset_pending:
                    e.reset_pending.discard(core)
                    if not e.reset_pending:
                        self._reset_complete(e)
                if e.reservation is not None and e.reservation[1] == core:
                    e.reservation = None
                    e.reservation_seq += 1
                if e.head is not None and (
                    e.head.lcu == core
                    or (e.tail is not None and e.tail.lcu == core)
                ):
                    self._reclaim(self._install(e.addr), "crash")
                # A queue whose visible endpoints survive may still have
                # *middle* nodes on the dead core (invisible to the LRT);
                # that wedge is detected by the watchdog below.

    def note_live_core(self, core: int) -> None:
        """Rebirth notification (machine.restart_core): the core's LCU is
        back — empty — and reset broadcasts include it again.  The
        failure detector grants it a fresh innocence window so the
        first probe after rebirth is not instantly fast-laddered."""
        self._dead_cores.discard(core)
        if self._hb_on:
            self._last_heartbeat[core] = self._sim.now

    # ------------------------------------------------------------------ #
    # watchdog and probe ladder

    def _watchdog_tick(self) -> None:
        now = self._sim.now
        for store in list(self._sets.values()) + [self._overflow]:
            for e in list(store.values()):
                if (
                    e.head is not None
                    and not e.reset_pending
                    and not e.probing
                    and now - e.last_activity >= self._silence_threshold
                ):
                    if e.head.lcu in self._dead_cores:
                        # Head homed on a core known dead: no probe can
                        # answer — revoke directly.
                        self._reclaim(self._install(e.addr), "crash")
                        continue
                    # Queue exists but nothing has touched it for a long
                    # time: ask the head's LCU whether the node is alive.
                    self._send_probe(e, 1)
        self._sim.after(self._watchdog_interval, self._watchdog_tick)

    def _send_probe(self, e: RecoveryLrtEntry, attempt: int) -> None:
        e.probing = True
        e.probe_attempts = attempt
        e.probe_seq += 1
        seq = e.probe_seq
        addr = e.addr
        _bump(self.stats, "probes")
        self._send_lcu(e.head.lcu, msg.QueueProbe(addr, e.head.tid))
        delay = min(_PROBE_TIMEOUT << (attempt - 1), _PROBE_TIMEOUT_CAP)
        if self._hb_on:
            # Adaptive timeout: stretch the retry by the probed core's
            # remaining innocence.  A core whose beats keep arriving is
            # slow, not gone — give it time instead of reclaiming a
            # live holder; a fully suspected core keeps the fast ladder.
            patience = _SUSPICION_MAX - self._suspicion_of(e.head.lcu)
            if patience > 0:
                delay = min(delay * (1 + patience), _PROBE_PATIENCE_CAP)
        self._sim.after(delay, lambda: self._probe_timeout(addr, seq))

    def _probe_timeout(self, addr: int, seq: int) -> None:
        """Capped-backoff retry of an unanswered liveness probe.  Probes
        are only unanswerable when the probed LCU is dead (delivery is
        otherwise reliable), so exhausting the cap declares the head
        dead and revokes the queue."""
        e = self.entry(addr)
        if e is None or not e.probing or e.probe_seq != seq:
            return
        if e.head is None or e.reset_pending:
            e.probing = False
            return
        if e.probe_attempts >= _PROBE_MAX_ATTEMPTS:
            e.probing = False
            _bump(self.stats, "probe_timeouts")
            self._reclaim(self._install(addr), "lease")
            return
        self._send_probe(e, e.probe_attempts + 1)

    def _on_probe_ack(self, m: msg.QueueProbeAck) -> None:
        e = self.entry(m.addr)
        if e is None:
            return
        e.probing = False
        if e.head is None or e.head.tid != m.tid:
            return  # the queue moved on while we probed
        if not m.alive:
            self._reclaim(self._install(m.addr), "watchdog")
            return
        if m.holding:
            # A live holder inside a long critical section: silence is
            # legitimate.  Wait for its release (or, if its thread died
            # in a crash, for the purge that releases on its behalf).
            e.last_alive_probe = None
            return
        # Alive but *not holding*: a REL/WAIT remnant at the recorded
        # head.  Legal transiently (head notification lag) — but if a
        # second full silent window passes with zero protocol traffic
        # and an identical generation, the token is circling a node that
        # died (crashed middle node): revoke.
        snap = (m.tid, e.head.lcu, e.gen)
        if e.last_alive_probe == snap:
            e.last_alive_probe = None
            _bump(self.stats, "lease_revocations")
            self._reclaim(self._install(m.addr), "lease")
            return
        e.last_alive_probe = snap

    def _on_grant_nack(self, m: msg.GrantNack) -> None:
        """A grant hit a dead LCU entry.  If it carried the Head token,
        the token is lost and the whole queue behind it is orphaned —
        reclaim.  A share grant to a dead reader needs nothing: the dead
        node is still linked and passes the token on when it arrives."""
        _bump(self.stats, "grant_nacks")
        e = self.entry(m.addr)
        if (
            e is None or m.gen < self._gen_floor.get(m.addr, 0)
            or not m.head
        ):
            return  # stale echo of an era already reclaimed
        self._reclaim(self._install(m.addr), "grant_nack")

    # ------------------------------------------------------------------ #
    # reclaim and the reset handshake

    def _reclaim(self, e: RecoveryLrtEntry, reason: str) -> None:
        """The queue for ``e.addr`` is orphaned: the Head token died with
        an evicted or crashed node.  Open a new era (generation jump),
        wipe the queue pointers, and broadcast ``QueueReset`` so every
        LCU drops its dead-era nodes and reports its surviving holders."""
        if e.reset_pending:
            return
        _bump(self.stats, "reclaims")
        _bump(self.stats, f"reclaims_{reason}")
        self._reclaim_started[e.addr] = self._sim.now
        e.reclaim_victim = e.head
        e.reset_reader_tids = set()
        e.gen += RECLAIM_GEN_STRIDE
        self._gen_floor[e.addr] = e.gen
        e.head = e.tail = None
        e.writers_waiting = 0
        e.pending_ovf_writer = None
        e.reservation = None
        e.reservation_seq += 1
        e.priority_members.clear()
        e.probing = False
        e.last_alive_probe = None
        # Broadcast only to live cores: a dead LCU can never ack, and
        # waiting on it would wedge the reclaim forever.  (Its survivors
        # are zero by definition — its state died with it.)
        live = {
            c for c in range(self._config.cores) if c not in self._dead_cores
        }
        e.reset_pending = set(live)
        e.reset_seq += 1
        e.reset_attempts = 0
        e.reset_survivor = None
        if not live:
            self._reset_complete(e)
            return
        for lcu_id in live:
            self._send_lcu(lcu_id, msg.QueueReset(e.addr, e.gen))
        self._sim.after(
            _RESET_RETRY_BACKOFF,
            lambda addr=e.addr, seq=e.reset_seq: self._reset_check(addr, seq),
        )

    def _reset_check(self, addr: int, seq: int) -> None:
        """Revocation-handshake retry: re-broadcast ``QueueReset`` to the
        LCUs that have not acknowledged, with capped exponential backoff.
        Duplicates are idempotent at the LCU (the ack is dup-guarded here
        by ``reset_pending`` membership).  After the attempt cap the
        reclaim force-completes with the acks in hand — unreachable
        in-model, kept as the documented graceful-degradation bound."""
        e = self.entry(addr)
        if e is None or e.reset_seq != seq or not e.reset_pending:
            return
        e.reset_attempts += 1
        if e.reset_attempts >= _RESET_MAX_ATTEMPTS or (
            self._hb_on
            and e.reset_attempts >= _RESET_SUSPECT_ATTEMPTS
            and all(
                self._suspicion_of(c) >= _SUSPICION_MAX
                for c in e.reset_pending
            )
        ):
            _bump(self.stats, "reset_forced")
            silent = e.reset_pending - self._dead_cores
            if silent:
                self._unsynced.setdefault(addr, set()).update(silent)
            e.reset_pending.clear()
            self._reset_complete(e)
            return
        # A core may have died since the broadcast; stop waiting for it.
        e.reset_pending -= self._dead_cores
        if not e.reset_pending:
            self._reset_complete(e)
            return
        _bump(self.stats, "reset_rebroadcasts", len(e.reset_pending))
        for lcu_id in e.reset_pending:
            self._send_lcu(lcu_id, msg.QueueReset(addr, self._gen_floor[addr]))
        delay = min(_RESET_RETRY_BACKOFF << e.reset_attempts, _RESET_RETRY_CAP)
        self._sim.after(delay, lambda: self._reset_check(addr, seq))

    def _reset_complete(self, e: RecoveryLrtEntry) -> None:
        """Every live LCU has acknowledged the reset (or the handshake
        force-completed): the new era is open for business."""
        started = self._reclaim_started.pop(e.addr, None)
        if started is not None:
            self.recovery_latencies.append(self._sim.now - started)
        if e.reset_survivor is not None and e.head is None:
            # A live writer survived the reclaim still owning the lock
            # (the dead node was a tail or middle): re-seat it as the
            # new era's head so requests enqueue behind it instead of
            # being granted over a live write hold.  The re-seat is a
            # grant: the survivor starts a new silence window.
            e.head = e.tail = e.reset_survivor
            e.last_activity = self._sim.now
            _bump(self.stats, "reset_reseats")
        e.reset_survivor = None
        # Era-close notification for bus subscribers: the acks
        # enumerated every hold that survived the reclaim at a live LCU
        # ("survivor" events), and anything else still believing it
        # holds this lock is a zombie — fenced out when fencing is
        # armed, or merely *recorded* in sabotage mode so the monitor's
        # zombie-writer check can prove the hole.  Skipped when the
        # victim died with its core: crash recovery already voided it.
        victim = e.reclaim_victim
        e.reclaim_victim = None
        if (
            self._subs
            and victim is not None
            and victim.lcu not in self._dead_cores
        ):
            survivors = set(e.reset_reader_tids)
            seated = e.head.tid if e.head is not None else None
            if seated is not None:
                survivors.add(seated)
            for t in sorted(survivors):
                self._emit("survivor", e.addr, t, t == seated)
            self._emit(
                "fenced" if self._fencing else "reclaim",
                e.addr, victim.tid, victim.write,
            )
        e.reset_reader_tids = set()
        # Readers that survived the reset now gate the next writer
        # through the ordinary overflow-drain machinery.
        self._drained_check(e)

    def _on_reset_ack(self, m: msg.QueueResetAck) -> None:
        synced = self._unsynced.get(m.addr)
        if synced is not None:
            # The late ack from a zombie or partitioned-away core: it
            # has finally processed the reset, so its rejoin gate lifts.
            synced.discard(m.lcu)
            if not synced:
                del self._unsynced[m.addr]
        e = self.entry(m.addr)
        if e is None or m.lcu not in e.reset_pending:
            return
        e.reset_pending.discard(m.lcu)
        e.reader_cnt += m.readers
        e.reset_reader_tids.update(m.reader_tids)
        if m.writer_tid >= 0:
            e.reset_survivor = Who(m.writer_tid, m.lcu, True)
        if not e.reset_pending:
            self._reset_complete(e)
