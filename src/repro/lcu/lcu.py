"""The Lock Control Unit: per-core hardware lock queue node table.

Implements the paper's Section III behaviour:

* ``acq``/``rel`` ISA primitives (non-blocking, return True/False);
* distributed queue construction (entries are queue nodes, transfers are
  direct LCU-to-LCU grants);
* concurrent reader runs with a single Head token, ``RD_REL`` silent
  releases and token bypassing (Section III-B);
* a grant timer that forwards unclaimed grants, making the unit robust to
  thread suspension, migration and abandoned trylocks (Section III-C);
* nonblocking local/remote entries for forward progress under entry
  exhaustion (Section III-D);
* service of migrated-thread releases walking the queue (Section III-C).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.lcu import messages as msg
from repro.lcu.entry import (
    ACQ, ISSUED, LOCAL, ORDINARY, RCV, RD_REL, REL, REMOTE, WAIT, LcuEntry,
)
from repro.lcu.messages import Who
from repro.net.network import Endpoint, Network
from repro.params import MachineConfig
from repro.sim.engine import Signal, Simulator


class ProtocolError(RuntimeError):
    """An LCU/LRT state machine received a message it cannot legally
    handle — indicates a protocol bug (tests rely on this being loud)."""


# Generation stride applied by an LRT queue reclaim.  Reclaim opens a new
# *era* for the lock; the stride is far larger than the transfer-count lag
# an LRT can accumulate against in-flight LCU-side transfers, so every
# old-era generation compares below every new-era one and stale grants /
# forwards can be recognised and dropped.
RECLAIM_GEN_STRIDE = 1024


class LockControlUnit:
    """One LCU, collocated with core ``lcu_id``."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        network: Network,
        lcu_id: int,
        endpoint: Endpoint,
        lrt_endpoint_of: Callable[[int], Endpoint],
    ) -> None:
        self._sim = sim
        self._config = config
        self._net = network
        self.lcu_id = lcu_id
        self._endpoint = endpoint
        self._lrt_ep_of = lrt_endpoint_of

        self._entries: Dict[Tuple[int, int], LcuEntry] = {}
        self._ordinary_in_use = 0
        self._local_in_use = False
        self._remote_in_use = False
        self._signals: Dict[Tuple[int, int], Signal] = {}
        # (addr, tid) pairs holding an overflow-mode read grant whose entry
        # was removed at acquisition time (see DESIGN.md on how this models
        # the overflow bit the paper's message encoding would carry).
        self._overflow_grants: Set[Tuple[int, int]] = set()
        # Transfer generation (and hold mode) of uncontended locks whose
        # entry was removed at acquisition: (addr, tid) -> (gen, write).
        # Re-allocation (FwdRequest / rel) must resume from this gen, not
        # from the LRT's possibly-stale one: the LRT learns generations
        # off the critical path, so trusting it can fork the sequence and
        # misdirect a Dealloc at a live holder.  The mode lets crash
        # cleanup release a dead thread's invisible hold on its behalf.
        self._held_gen: Dict[Tuple[int, int], Tuple[int, bool]] = {}
        # Free Lock Table (paper IV-C, future work): locks released
        # uncontended are parked here instead of being returned to the
        # LRT, restoring the "implicit biasing" of coherence-based locks.
        # addr -> (tid, write, gen).  Empty when config.flt_entries == 0.
        self._flt: Dict[int, Tuple[int, bool, int]] = {}

        # --- hardened mode (fault tolerance; armed by repro.faults) ---
        #: when True, messages that would indicate a protocol bug in a
        #: fault-free run (grant for a missing entry, forward to an
        #: unknown tail) are treated as recoverable fault symptoms
        self.hardened = False
        #: crash-stop fault: a dead LCU drops every message and serves no
        #: instructions until :meth:`restart` (see machine.crash_core)
        self.dead = False
        #: addr -> generation of the last QueueReset seen; messages from
        #: earlier eras are stale and must be dropped, not acted on
        self._reset_gen: Dict[int, int] = {}
        #: per-LCU issue counter for outgoing Requests: stamps
        #: ``LcuEntry.req_seq`` / ``Request.seq`` so stale per-request
        #: replies (RETRY/WAIT) crossing a crash-reclaim re-request
        #: cannot bind to the newer entry under the same (addr, tid)
        self._req_seq = 0
        #: fault-injection pressure: None, or a temporary cap (< config)
        #: on the ordinary entry pool (models resource exhaustion)
        self._forced_capacity: Optional[int] = None
        #: (addr, tid) pairs whose queue node was forcibly evicted and is
        #: still dead weight in the LRT's queue: re-requesting before the
        #: reclaim's QueueReset would enqueue the same node twice
        self._evicted: set = set()
        #: fence tokens armed (gray-failure hardening): releases echo
        #: their hold's (gen, era) pair so the LRT can reject zombies
        self._fencing = False
        #: addr -> last fence era seen on a grant (diagnostic half of
        #: the token; enforcement is on the generation floor)
        self._era_seen: Dict[int, int] = {}

        self.stats: Dict[str, int] = {
            "acquires": 0, "releases": 0, "transfers": 0, "timeouts": 0,
            "alloc_failures": 0, "retries_received": 0,
            "remote_releases_served": 0, "fwd_nacks": 0,
        }
        #: most entries simultaneously in use (table-pressure telemetry)
        self.entries_highwater = 0
        #: the bus's ``lcu`` topic (see :mod:`repro.sim.bus`)
        self._subs = sim.bus.lcu

    def _emit(self, event: str, addr: int, tid: int, write: bool) -> None:
        if self._subs:
            for fn in self._subs:
                fn(event, addr, tid, write)

    # ------------------------------------------------------------------ #
    # plumbing

    def _lcu_ep(self, lcu_id: int) -> Endpoint:
        return ("core", lcu_id)

    def _send_lcu(self, lcu_id: int, m: object) -> None:
        self._net.send(self._endpoint, self._lcu_ep(lcu_id), m)

    def _send_lrt(self, addr: int, m: object) -> None:
        self._net.send(self._endpoint, self._lrt_ep_of(addr), m)

    def _release_msg(
        self, addr: int, rel: Who, overflow: bool, gen: int = -1
    ) -> msg.ReleaseMsg:
        """Build a release, echoing the hold's fence token when fencing
        is armed (``gen`` is the hold's generation; the era half is the
        last one a grant delivered).  Unfenced builds keep the legacy
        wildcard, byte-for-byte."""
        if not self._fencing:
            return msg.ReleaseMsg(addr, rel, overflow)
        return msg.ReleaseMsg(
            addr, rel, overflow,
            gen=gen, era=self._era_seen.get(addr, 0),
        )

    def _fire(self, addr: int, tid: int) -> None:
        sig = self._signals.get((addr, tid))
        if sig is not None:
            sig.fire()

    def entry_signal(self, tid: int, addr: int) -> Signal:
        """Signal fired on any state change of the (addr, tid) entry —
        the local-spin target for threads waiting on this LCU."""
        key = (addr, tid)
        sig = self._signals.get(key)
        if sig is None:
            sig = Signal(self._sim)
            self._signals[key] = sig
        return sig

    def poll_ready(self, tid: int, addr: int) -> bool:
        """Whether retrying ``acq`` now could make progress (grant arrived,
        re-acquirable RD_REL, or no entry so a new request is needed)."""
        e = self._entries.get((addr, tid))
        if e is None:
            return True
        if e.status == RCV and not e.pending_ovf:
            return True
        return e.status == RD_REL and not e.write

    def entry(self, tid: int, addr: int) -> Optional[LcuEntry]:
        return self._entries.get((addr, tid))

    @property
    def entries_in_use(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # entry pool

    def _alloc(
        self, addr: int, tid: int, write: bool, for_release: bool = False
    ) -> Optional[LcuEntry]:
        ordinary_cap = self._config.lcu_ordinary_entries
        if self._forced_capacity is not None:
            ordinary_cap = min(ordinary_cap, self._forced_capacity)
        if self._ordinary_in_use < ordinary_cap:
            kind = ORDINARY
            self._ordinary_in_use += 1
        elif for_release and not self._remote_in_use:
            kind = REMOTE
            self._remote_in_use = True
        elif not for_release and not self._local_in_use:
            kind = LOCAL
            self._local_in_use = True
        else:
            self.stats["alloc_failures"] += 1
            return None
        e = LcuEntry(addr, tid, write, kind)
        self._entries[(addr, tid)] = e
        if len(self._entries) > self.entries_highwater:
            self.entries_highwater = len(self._entries)
        return e

    def _free(self, e: LcuEntry) -> None:
        self._entries.pop((e.addr, e.tid), None)
        if e.kind == ORDINARY:
            self._ordinary_in_use -= 1
        elif e.kind == LOCAL:
            self._local_in_use = False
        else:
            self._remote_in_use = False
        e.timer_seq += 1
        self._fire(e.addr, e.tid)

    # ------------------------------------------------------------------ #
    # fault injection surface (repro.faults; inert unless used)

    def harden(self, fencing: bool = True) -> None:
        """Switch protocol-bug symptoms (grant for a missing entry, stale
        forwards) from loud :class:`ProtocolError` to structured recovery
        via the LRT's orphan-queue reclamation.

        ``fencing`` arms fence-token echoing on releases and the
        structured :class:`~repro.lcu.messages.FencedOperation` answers
        to dead-era forwards; ``False`` is the sabotage mode (see
        ``repro faults --no-fencing``)."""
        self.hardened = True
        self._fencing = fencing

    def set_forced_capacity(self, limit: Optional[int]) -> None:
        """Temporarily cap the ordinary entry pool (``None`` restores the
        configured size) — models entry-table resource exhaustion."""
        self._forced_capacity = limit

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
        self.stats["forced_evictions"] = (
            self.stats.get("forced_evictions", 0) + 1
        )
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
        self.stats["flt_forced_evictions"] = (
            self.stats.get("flt_forced_evictions", 0) + 1
        )
        self._send_lrt(
            addr,
            self._release_msg(addr, Who(tid, self.lcu_id, write), False, gen),
        )
        return True

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
        protocol messages (counted in ``dead_drops``) — the LRT's lease
        watchdog and crash notifications recover the orphaned queues.
        Returns the tids whose lock state was homed here: each provably
        has no other record of holding or queueing on the wiped locks,
        so the caller kills those threads too (crash model: software and
        hardware state die together, making lease revocation safe)."""
        self.dead = True
        self.stats["crashes"] = self.stats.get("crashes", 0) + 1
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
                self.stats["crash_releases"] = (
                    self.stats.get("crash_releases", 0) + 1
                )
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
            self.stats["crash_releases"] = (
                self.stats.get("crash_releases", 0) + 1
            )
            self._emit("release", addr, tid, write)
            self._send_lrt(
                addr,
                self._release_msg(
                    addr, Who(tid, self.lcu_id, write), False, gen
                ),
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
            self.stats["crash_releases"] = (
                self.stats.get("crash_releases", 0) + 1
            )
            self._emit("release", addr, tid, False)
            self._send_lrt(
                addr, msg.ReleaseMsg(addr, Who(tid, self.lcu_id, False), True)
            )

    def _retry_purge(self, dead: Set[int]) -> None:
        """Entry pool momentarily full while materialising a dead
        thread's release: retry once entries have drained."""
        self.stats["crash_purge_retries"] = (
            self.stats.get("crash_purge_retries", 0) + 1
        )
        self._sim.after(500, lambda: self.purge_dead_tids(dead))

    # ------------------------------------------------------------------ #
    # ISA primitives (invoked by the core; cost = config.lcu_latency,
    # charged by the executor)

    def instr_acquire(
        self, tid: int, addr: int, write: bool, priority: bool = False
    ) -> bool:
        """The ``acq`` primitive: returns True iff the lock is acquired.
        ``priority`` marks the request for the LRT's real-time handling
        (bounded-jump priority, the paper's future-work extension)."""
        key = (addr, tid)
        e = self._entries.get(key)
        if e is None:
            if self.hardened and key in self._evicted:
                # Forcibly-evicted node still queued at the LRT: hold off
                # re-requesting until the reclaim's QueueReset clears it
                # (a grant/forward hitting the dead node, or the idle
                # watchdog, triggers that reclaim).
                self.stats["tombstoned_acqs"] = (
                    self.stats.get("tombstoned_acqs", 0) + 1
                )
                return False
            parked = self._flt.get(addr)
            if parked is not None and parked[0] == tid and parked[1] == write:
                # FLT hit: the thread re-acquires its own parked lock with
                # zero remote traffic (the biased fast path).
                del self._flt[addr]
                self._held_gen[key] = (parked[2], parked[1])
                self.stats["flt_hits"] = self.stats.get("flt_hits", 0) + 1
                self.stats["acquires"] += 1
                self._emit("acquire", addr, tid, write)
                return True
            e = self._alloc(addr, tid, write)
            if e is None:
                return False
            e.status = ISSUED
            self._req_seq += 1
            e.req_seq = self._req_seq
            self._emit("req_sent", addr, tid, write)
            self._send_lrt(
                addr,
                msg.Request(
                    addr, Who(tid, self.lcu_id, write),
                    e.nonblocking, priority, seq=e.req_seq,
                ),
            )
            return False
        if e.write != write:
            # A stale entry from an abandoned request in the other mode;
            # the grant timer will clear it, then a fresh request goes out.
            return False
        if e.status == RCV and not e.pending_ovf:
            e.timer_seq += 1  # cancel the grant timer
            self.stats["acquires"] += 1
            self._emit("acquire", addr, tid, write)
            if e.overflow:
                # Overflow readers do not join the queue; remember the
                # grant so the release can be tagged, then free the entry.
                self._overflow_grants.add(key)
                self._free(e)
                return True
            e.status = ACQ
            if e.head and e.next is None:
                # Uncontended: remove the entry to leave room (paper III-A).
                self._held_gen[key] = (e.gen, e.write)
                self._free(e)
            return True
        if e.status == RD_REL and not write:
            # Local re-acquisition of a silently-released read lock.
            e.status = ACQ
            self.stats["acquires"] += 1
            self._emit("acquire", addr, tid, write)
            return True
        return False

    def instr_release(self, tid: int, addr: int, write: bool) -> bool:
        """The ``rel`` primitive: returns True iff the release was accepted
        (False = no free entry; the software loop retries)."""
        key = (addr, tid)
        e = self._entries.get(key)
        if e is None:
            overflow = key in self._overflow_grants
            if (
                not overflow
                and key in self._held_gen
                and len(self._flt) < self._config.flt_entries
            ):
                # Park the lock in the Free Lock Table instead of telling
                # the LRT: the release stays invisible remotely, so a
                # re-acquisition by this thread is free (paper IV-C).
                self._flt[addr] = (tid, write, self._held_gen.pop(key)[0])
                self.stats["flt_parks"] = self.stats.get("flt_parks", 0) + 1
                self.stats["releases"] += 1
                self._emit("release", addr, tid, write)
                return True
            # Uncontended lock, overflow-mode grant, or migrated thread:
            # re-allocate an entry and tell the LRT (paper III-A / III-C).
            e = self._alloc(addr, tid, write, for_release=True)
            if e is None:
                return False
            self._overflow_grants.discard(key)
            e.status = REL
            e.overflow = overflow
            e.gen = self._held_gen.pop(key, (0, write))[0]
            self.stats["releases"] += 1
            self._emit("release", addr, tid, write)
            self._send_lrt(
                addr,
                self._release_msg(
                    addr, Who(tid, self.lcu_id, write), overflow, e.gen
                ),
            )
            return True
        if e.status == ACQ and e.write == write:
            self.stats["releases"] += 1
            self._emit("release", addr, tid, write)
            self._release_entry(e)
            return True
        if e.status in (ISSUED, WAIT, RCV, RD_REL):
            # The local entry is a *stale queue node* left behind by
            # spinning before a migration (same tid re-enqueued elsewhere,
            # then the thread wandered back): the lock the thread actually
            # holds lives in another node.  Route the release through the
            # LRT's queue walk without touching the stale node — it will
            # self-heal via the grant timer when its grant arrives.
            self.stats["releases"] += 1
            self._emit("release", addr, tid, write)
            self._send_lrt(
                addr, msg.ReleaseMsg(addr, Who(tid, self.lcu_id, write), False)
            )
            return True
        raise ProtocolError(
            f"release (write={write}) of entry in invalid state {e!r}"
        )

    def instr_enqueue(self, tid: int, addr: int, write: bool) -> bool:
        """The optional Enqueue prefetch (paper footnote 1): issue the
        request / join the queue without acquiring."""
        key = (addr, tid)
        if key in self._entries:
            return True
        e = self._alloc(addr, tid, write)
        if e is None:
            return False
        e.status = ISSUED
        self._req_seq += 1
        e.req_seq = self._req_seq
        self._emit("req_sent", addr, tid, write)
        self._send_lrt(
            addr,
            msg.Request(
                addr, Who(tid, self.lcu_id, write), e.nonblocking,
                seq=e.req_seq,
            ),
        )
        return True

    # ------------------------------------------------------------------ #
    # internal release / transfer machinery

    def _release_entry(self, e: LcuEntry) -> None:
        """Release a held entry (ACQ, or RCV via the grant timer)."""
        if e.write or e.head:
            if e.write and not e.head:
                raise ProtocolError(f"writer without head token: {e!r}")
            if e.next is not None:
                self._transfer(e)
            else:
                e.status = REL
                e.timer_seq += 1
                self._send_lrt(
                    e.addr,
                    self._release_msg(
                        e.addr, Who(e.tid, self.lcu_id, e.write),
                        e.overflow, e.gen,
                    ),
                )
        else:
            # Intermediate reader: silent release, wait for the Head token.
            e.status = RD_REL
            e.timer_seq += 1
        self._fire(e.addr, e.tid)

    def _transfer(self, e: LcuEntry) -> None:
        """Hand the Head token to the next queue node (direct transfer)."""
        nxt = e.next
        assert nxt is not None
        self.stats["transfers"] += 1
        self._emit("transfer", e.addr, nxt.tid, nxt.write)
        self._emit("grant_sent", e.addr, nxt.tid, nxt.write)
        self._send_lcu(
            nxt.lcu,
            msg.Grant(
                e.addr,
                nxt.tid,
                head=True,
                gen=e.gen + 1,
                confirm_required=bool(nxt.write and e.pending_ovf),
            ),
        )
        e.status = REL
        e.timer_seq += 1

    def _arm_timer(self, e: LcuEntry) -> None:
        e.timer_seq += 1
        seq = e.timer_seq
        addr, tid = e.addr, e.tid
        self._sim.after(
            self._config.lcu_grant_timeout,
            lambda: self._timer_fire(addr, tid, seq),
        )

    def _timer_fire(self, addr: int, tid: int, seq: int) -> None:
        e = self._entries.get((addr, tid))
        if e is None or e.timer_seq != seq or e.status != RCV:
            return
        if e.pending_ovf:
            # Cannot pass a write grant we have not been cleared to use;
            # keep waiting for OvfClear, then the timer re-arms.
            self._arm_timer(e)
            return
        self.stats["timeouts"] += 1
        self._emit("timeout", addr, tid, e.write)
        if e.overflow:
            e.status = REL
            self._send_lrt(
                addr, msg.ReleaseMsg(addr, Who(tid, self.lcu_id, e.write), True)
            )
            self._fire(addr, tid)
            return
        # Behave as if the absent thread acquired and released instantly.
        self._release_entry(e)

    # ------------------------------------------------------------------ #
    # message handling

    def on_message(self, _src: Endpoint, m: object) -> None:
        if self.dead:
            # Crashed core: the unit neither processes nor answers.
            # Senders recover via the LRT's crash notification / lease
            # watchdog, never by retransmitting into a dead node.
            self.stats["dead_drops"] = self.stats.get("dead_drops", 0) + 1
            return
        h = _LCU_HANDLERS.get(m.__class__)
        if h is None:
            raise ProtocolError(f"LCU{self.lcu_id}: unexpected message {m!r}")
        getattr(self, h)(m)

    # -- grants ---------------------------------------------------------- #

    def _on_grant(self, m: msg.Grant) -> None:
        key = (m.addr, m.tid)
        if self.hardened and m.gen < self._reset_gen.get(m.addr, 0):
            # Stale-era grant: its queue was reclaimed.  Acting on it
            # could put a second Head token in circulation — drop it.
            self.stats["stale_grants_dropped"] = (
                self.stats.get("stale_grants_dropped", 0) + 1
            )
            return
        e = self._entries.get(key)
        if e is None:
            if self.hardened:
                # The queue node this grant targeted is gone (forced
                # eviction).  Bounce it to the LRT: a lost *head* grant
                # means the Head token died with the node, and the LRT
                # must reclaim the orphaned queue.
                self.stats["grant_nacks"] = (
                    self.stats.get("grant_nacks", 0) + 1
                )
                self._send_lrt(
                    m.addr,
                    msg.GrantNack(m.addr, m.tid, self.lcu_id, m.gen, m.head),
                )
                return
            raise ProtocolError(
                f"LCU{self.lcu_id}: grant {m!r} for missing entry"
            )
        e.gen = max(e.gen, m.gen)
        if m.lease:
            e.lease = max(e.lease, m.lease)
        if m.era:
            self._era_seen[m.addr] = max(
                self._era_seen.get(m.addr, 0), m.era
            )

        if m.overflow:
            if e.status not in (ISSUED, WAIT):
                raise ProtocolError(f"overflow grant in status {e.status}")
            e.status = RCV
            e.overflow = True
            self._emit("grant_recv", m.addr, m.tid, e.write)
            self._arm_timer(e)
            self._fire(m.addr, m.tid)
            return

        if not m.head:
            # Reader share grant travelling down a run of readers.
            if e.write:
                raise ProtocolError(f"share grant to writer entry {e!r}")
            if e.status in (ISSUED, WAIT):
                e.status = RCV
                self._emit("grant_recv", m.addr, m.tid, e.write)
                self._arm_timer(e)
                self._propagate_share(e)
                self._fire(m.addr, m.tid)
            # Duplicate share grants (already RCV/ACQ/RD_REL) are benign.
            return

        # Head token.
        if m.confirm_required and e.write:
            e.pending_ovf = True
            self._send_lrt(
                m.addr, msg.OvfCheck(m.addr, m.tid, self.lcu_id)
            )

        if e.status in (ISSUED, WAIT):
            e.status = RCV
            e.head = True
            self._emit("grant_recv", m.addr, m.tid, e.write)
            self._arm_timer(e)
            if not m.from_lrt:
                self._notify_head(e)
            if not e.write:
                self._propagate_share(e)
            self._fire(m.addr, m.tid)
        elif e.status in (RCV, ACQ):
            # A reader that already held a share grant now gets the token.
            if e.write:
                raise ProtocolError(f"duplicate head grant to writer {e!r}")
            e.head = True
            if not m.from_lrt:
                self._notify_head(e)
            self._fire(m.addr, m.tid)
        elif e.status == RD_REL:
            # Token bypasses a silently-released intermediate reader.
            if e.next is not None:
                self._emit("grant_sent", e.addr, e.next.tid, e.next.write)
                self._send_lcu(
                    e.next.lcu,
                    msg.Grant(
                        e.addr,
                        e.next.tid,
                        head=True,
                        gen=e.gen + 1,
                        confirm_required=bool(e.next.write and e.pending_ovf),
                    ),
                )
                self.stats["transfers"] += 1
                self._free(e)
            else:
                # Last node of the queue: become head, then release.
                e.head = True
                if not m.from_lrt:
                    self._notify_head(e)
                e.status = REL
                self._send_lrt(
                    e.addr,
                    self._release_msg(
                        e.addr, Who(e.tid, self.lcu_id, e.write),
                        False, e.gen,
                    ),
                )
        else:
            raise ProtocolError(f"head grant in status {e.status}: {e!r}")

    def _notify_head(self, e: LcuEntry) -> None:
        self._send_lrt(
            e.addr,
            msg.HeadNotify(e.addr, Who(e.tid, self.lcu_id, e.write), e.gen),
        )

    def _propagate_share(self, e: LcuEntry) -> None:
        if e.next is not None and not e.next.write:
            self._emit("grant_sent", e.addr, e.next.tid, False)
            self._send_lcu(
                e.next.lcu,
                msg.Grant(e.addr, e.next.tid, head=False, gen=e.gen),
            )

    # -- queue building --------------------------------------------------- #

    def _on_fwd(self, m: msg.FwdRequest) -> None:
        key = (m.addr, m.tail_tid)
        if self.hardened and m.gen < self._reset_gen.get(m.addr, 0):
            # Forward from a reclaimed era: the requestor was rescued by
            # the QueueReset broadcast and has re-requested; linking it
            # into the new-era queue through a dead tail would corrupt it.
            self.stats["stale_fwds_dropped"] = (
                self.stats.get("stale_fwds_dropped", 0) + 1
            )
            if self._fencing:
                # Tell the requestor its enqueue died with the old era
                # (for FencedOperation the token fields carry the gen
                # pair): its LCU frees the stale ISSUED/WAIT node if the
                # QueueReset broadcast has not already, so the thread
                # re-requests instead of waiting on a dropped forward.
                self._send_lcu(
                    m.req.lcu,
                    msg.FencedOperation(
                        m.addr, m.req.tid, "fwd",
                        era=m.gen,
                        current_era=self._reset_gen.get(m.addr, 0),
                    ),
                )
            return
        e = self._entries.get(key)
        parked = self._flt.get(m.addr)
        if (
            parked is not None
            and parked[0] == m.tail_tid
            and (
                e is None
                or (parked[1] == m.tail_write and e.write != m.tail_write)
            )
        ):
            # A requestor wants a lock parked in the FLT: the lock is
            # logically free, so hand it straight over.  The entry-mode
            # check covers a key collision: when the *parking thread
            # itself* re-requests in the other mode (its park cannot
            # satisfy the new mode), its fresh ISSUED entry reuses the
            # old tail's (addr, tid) key — that entry is the requestor,
            # not the tail this forward names, and linking the queue
            # through it would point the node at itself.
            del self._flt[m.addr]
            self.stats["transfers"] += 1
            gen = max(parked[2], m.gen) + 1
            self._emit("grant_sent", m.addr, m.req.tid, m.req.write)
            self._send_lcu(
                m.req.lcu,
                msg.Grant(
                    m.addr, m.req.tid, head=True, gen=gen,
                    confirm_required=bool(
                        m.req.write and m.confirm_required
                    ),
                ),
            )
            return
        if e is None:
            if self.hardened and key not in self._held_gen:
                # No entry, no held-generation record, no FLT park: this
                # LCU has no trace of the named tail *holding* anything.
                # In a fault-free run re-allocation always finds one of
                # the three, so the tail node must have been lost to a
                # fault the LRT has not noticed yet.  Re-allocating would
                # fabricate a phantom holder; nack with ``phantom`` set
                # so the LRT reclaims the broken chain instead of
                # retrying (a retry could only false-match a newer node
                # reusing this (addr, tid) key).
                self.stats["phantom_fwds_refused"] = (
                    self.stats.get("phantom_fwds_refused", 0) + 1
                )
                self.stats["fwd_nacks"] += 1
                self._send_lrt(m.addr, msg.FwdNack(m.addr, m, phantom=True))
                return
            # We were the uncontended owner; re-allocate (paper Fig. 4b).
            e = self._alloc(m.addr, m.tail_tid, m.tail_write)
            if e is None or e.nonblocking:
                # Nonblocking entries must not join queues; give the LRT
                # back-pressure and let it retry.
                if e is not None:
                    self._free(e)
                self.stats["fwd_nacks"] += 1
                self._send_lrt(m.addr, msg.FwdNack(m.addr, m))
                return
            e.status = ACQ
            e.head = True
            e.gen = max(m.gen, self._held_gen.pop(key, (0, m.tail_write))[0])
        if e.next is not None:
            if self.hardened:
                if e.next == m.req:
                    return  # duplicate forward: already linked
                # Stale forward racing a reclaim: the tail was re-linked
                # in a newer era.  Drop it — the requestor either was or
                # will be rescued by the era's QueueReset.
                self.stats["stale_fwds_dropped"] = (
                    self.stats.get("stale_fwds_dropped", 0) + 1
                )
                return
            raise ProtocolError(f"tail {e!r} already has a successor")
        e.next = m.req
        e.pending_ovf = e.pending_ovf or m.confirm_required
        e.gen = max(e.gen, m.gen)

        if e.status == REL:
            # Release/enqueue race (paper III-A): hand the lock straight
            # to the forwarded requestor.
            self.stats["transfers"] += 1
            self._emit("grant_sent", m.addr, m.req.tid, m.req.write)
            self._send_lcu(
                m.req.lcu,
                msg.Grant(
                    m.addr,
                    m.req.tid,
                    head=True,
                    gen=e.gen + 1,
                    confirm_required=bool(m.req.write and m.confirm_required),
                ),
            )
            return

        self._send_lcu(
            m.req.lcu, msg.WaitMsg(m.addr, m.req.tid, seq=m.req_seq)
        )
        if (
            not m.req.write
            and not e.write
            and e.status in (RCV, ACQ, RD_REL)
        ):
            # Tail holds (or is inside) an active read run: share the lock.
            self._emit("grant_sent", m.addr, m.req.tid, False)
            self._send_lcu(
                m.req.lcu,
                msg.Grant(m.addr, m.req.tid, head=False, gen=e.gen),
            )

    def _on_wait(self, m: msg.WaitMsg) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is None or (m.seq and m.seq != e.req_seq):
            return  # stale WAIT for an earlier issue of this request
        if e.status == ISSUED:
            e.status = WAIT
            self._fire(m.addr, m.tid)

    def _on_retry(self, m: msg.Retry) -> None:
        e = self._entries.get((m.addr, m.tid))
        self.stats["retries_received"] += 1
        if e is not None:
            if m.seq and m.seq != e.req_seq:
                # Stale RETRY: it answered an earlier issue of this
                # (addr, tid) request whose entry a crash reclaim
                # already freed; this entry is a newer incarnation.
                return
            if e.status != ISSUED:
                if self.hardened:
                    # A reclaim raced this RETRY: the entry it addressed
                    # is a newer incarnation.  Ignore.
                    return
                raise ProtocolError(f"RETRY for {e!r}")
            self._free(e)

    # -- releases ---------------------------------------------------------- #

    def _on_release_ack(self, m: msg.ReleaseAck) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is not None and e.status == REL:
            self._free(e)

    def _on_release_retry(self, m: msg.ReleaseRetry) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is not None and e.status == REL:
            e.gen = max(e.gen, m.gen)
        # Entry stays; the in-flight FwdRequest will collect the lock.

    def _on_dealloc(self, m: msg.Dealloc) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is not None and e.status == REL:
            self._free(e)
        # A non-REL entry under the same key is a *newer incarnation*
        # (e.g. the thread re-requested right after its parked FLT lock
        # was handed away); the Dealloc addressed the old one — ignore.

    def _on_ovf_clear(self, m: msg.OvfClear) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is not None and e.pending_ovf:
            e.pending_ovf = False
            if e.status == RCV:
                self._arm_timer(e)
            self._fire(m.addr, m.tid)

    # -- migrated-thread release (queue walk) ------------------------------ #

    def _on_remote_release(self, m: msg.RemoteRelease) -> None:
        via = self._entries.get((m.addr, m.via_tid))
        if via is None:
            self._send_lrt(
                m.addr,
                msg.RemoteReleaseNack(
                    m.addr, m.target_tid, m.write, m.origin_lcu, m.hops
                ),
            )
            return
        if m.via_tid == m.target_tid and via.status in (ACQ, RCV):
            if via.write != m.write:
                raise ProtocolError(
                    f"remote release mode mismatch on {via!r}"
                )
            if via.status == RCV:
                via.status = ACQ  # claim on behalf of the absent thread
            self.stats["remote_releases_served"] += 1
            self._release_entry(via)
            self._net.send(
                self._endpoint,
                self._lcu_ep(m.origin_lcu),
                msg.RemoteReleaseAck(m.addr, m.target_tid),
            )
            return
        nxt = via.next
        if nxt is None:
            self._send_lrt(
                m.addr,
                msg.RemoteReleaseNack(
                    m.addr, m.target_tid, m.write, m.origin_lcu, m.hops
                ),
            )
            return
        self._send_lcu(
            nxt.lcu,
            msg.RemoteRelease(
                m.addr, m.target_tid, m.write, m.origin_lcu, nxt.tid, m.hops + 1
            ),
        )

    def _on_remote_release_ack(self, m: msg.RemoteReleaseAck) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is not None and e.status == REL:
            self._free(e)

    # -- orphan-queue reclamation (hardened mode) -------------------------- #

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
                if e.status in (ISSUED, WAIT):
                    self._emit("evict", addr, tid, e.write)
                self.stats["reset_freed"] = (
                    self.stats.get("reset_freed", 0) + 1
                )
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
                self._emit("evict", addr, tid, e.write)
                self.stats["reset_freed"] = (
                    self.stats.get("reset_freed", 0) + 1
                )
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
            self.stats["reset_unparked"] = (
                self.stats.get("reset_unparked", 0) + 1
            )
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
        (same newer-incarnation rule as :meth:`_on_dealloc`).

        The thread may equally have re-acquired the *lock* before the
        fence for its pre-stall release arrives, so every drop is
        gen-guarded: only state at or below the fenced token's ``gen``
        belongs to the stale hold.  Overflow records are never touched
        — overflow releases are exempt from fencing entirely."""
        key = (m.addr, m.tid)
        self.stats["fenced_ops"] = self.stats.get("fenced_ops", 0) + 1
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
        (ACQ/RCV or an invisible hold) — the lease watchdog only revokes
        a silent queue whose probed head is alive but provably not
        holding (a REL/WAIT remnant in front of a crashed middle node);
        revoking a live holder could put two writers in the section."""
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


# Message dispatch table: class-keyed lookup replaces the 12-branch
# isinstance chain on the hottest protocol path (one dict probe + one
# attribute fetch per delivered message).  Exact-class keying is safe —
# LCU messages are final dataclasses, never subclassed.  Values are
# method *names*, resolved per call, so tests and fault harnesses can
# still monkeypatch individual handlers.
_LCU_HANDLERS: dict = {
    msg.Grant: "_on_grant",
    msg.FwdRequest: "_on_fwd",
    msg.WaitMsg: "_on_wait",
    msg.Retry: "_on_retry",
    msg.ReleaseAck: "_on_release_ack",
    msg.ReleaseRetry: "_on_release_retry",
    msg.Dealloc: "_on_dealloc",
    msg.OvfClear: "_on_ovf_clear",
    msg.RemoteRelease: "_on_remote_release",
    msg.RemoteReleaseAck: "_on_remote_release_ack",
    msg.QueueReset: "_on_queue_reset",
    msg.QueueProbe: "_on_queue_probe",
    msg.FencedOperation: "_on_fenced",
}
