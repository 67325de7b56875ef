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
* service of migrated-thread releases walking the queue (Section III-C);
* the Free Lock Table of Section IV-C and the priority request flag.

Anything a fault-free run never sends here raises :class:`ProtocolError`;
fault tolerance is the layer :mod:`repro.lcu.recovery` installs.
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
        #: size of the ordinary entry pool
        self._ordinary_cap = config.lcu_ordinary_entries
        #: per-LCU issue counter for outgoing Requests: stamps
        #: ``LcuEntry.req_seq`` / ``Request.seq`` so stale per-request
        #: replies (RETRY/WAIT) crossing a crash-reclaim re-request
        #: cannot bind to the newer entry under the same (addr, tid)
        self._req_seq = 0
        #: message class -> handler name (see ``_LCU_HANDLERS``)
        self._handlers: Dict[type, str] = _LCU_HANDLERS

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
        if self._ordinary_in_use < self._ordinary_cap:
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
                msg.ReleaseMsg(
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
                    msg.ReleaseMsg(
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
        h = self._handlers.get(m.__class__)
        if h is None:
            raise ProtocolError(f"LCU{self.lcu_id}: unexpected message {m!r}")
        getattr(self, h)(m)

    # -- grants ---------------------------------------------------------- #

    def _on_grant(self, m: msg.Grant) -> None:
        e = self._entries.get((m.addr, m.tid))
        if e is None:
            raise ProtocolError(
                f"LCU{self.lcu_id}: grant {m!r} for missing entry"
            )
        e.gen = max(e.gen, m.gen)

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
                    msg.ReleaseMsg(
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

    def _flt_handover(
        self, m: msg.FwdRequest, e: Optional[LcuEntry]
    ) -> Optional[Tuple[int, bool, int]]:
        """The FLT park forward ``m`` takes over (the lock is logically
        free), or None.  The entry-mode check covers the *parking
        thread itself* re-requesting in the other mode: its fresh entry
        reuses the tail's (addr, tid) key but is the requestor, and
        linking the queue through it would point the node at itself."""
        parked = self._flt.get(m.addr)
        if (
            parked is not None
            and parked[0] == m.tail_tid
            and (
                e is None
                or (parked[1] == m.tail_write and e.write != m.tail_write)
            )
        ):
            return parked
        return None

    def _on_fwd(self, m: msg.FwdRequest) -> None:
        key = (m.addr, m.tail_tid)
        e = self._entries.get(key)
        parked = self._flt_handover(m, e)
        if parked is not None:
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



# Message dispatch table: class-keyed lookup replaces the isinstance
# chain on the hottest protocol path (one dict probe + one attribute
# fetch per delivered message).  Exact-class keying is safe: messages
# are NamedTuple records, never subclassed.  Values are method *names*,
# resolved per call, so tests can still monkeypatch individual handlers.
# The recovery layer swaps in a wider table (repro.lcu.recovery).
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
}
