"""The Lock Reservation Table: per-memory-controller lock queue manager.

One LRT instance manages every lock whose physical address maps to its
memory controller.  Responsibilities (paper Section III):

* allocate/deallocate lock entries on demand — only *locked* addresses
  consume hardware state;
* keep the queue head/tail tuples and forward new requests to the tail;
* accept head-update notifications off the transfer critical path,
  guarded by the transfer generation (the paper's ``transfer_cnt``);
* resolve the release/enqueue race with RETRY answers;
* run the overflow machinery of Section III-D: overflow-mode reader
  grants (``reader_cnt``), the reservation that guarantees nonblocking
  entries eventually succeed, and writer/overflow-reader draining;
* service migrated-thread releases by walking the queue from the head
  (Section III-C);
* spill least-recently-used entries to an in-memory hash table when the
  set-associative table fills (Section III-E), charging main-memory
  latency for spills and refills;
* the priority window of the real-time extension.

Anything a fault-free run never sends here raises :class:`ProtocolError`;
fault tolerance is the layer :mod:`repro.lcu.recovery` installs.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.lcu import messages as msg
from repro.lcu.lcu import ProtocolError
from repro.lcu.messages import Who
from repro.net.network import Endpoint, Network
from repro.params import MachineConfig
from repro.sim.engine import Server, Simulator

_FWD_RETRY_BACKOFF = 300      # cycles before re-sending a nacked forward
_REMOTE_RETRY_BACKOFF = 300
_REMOTE_RETRY_MAX = 12

class LrtEntry:
    """Lock state for one address (paper Figure 3, LRT side)."""

    __slots__ = (
        "addr", "head", "tail", "gen", "reader_cnt", "writers_waiting",
        "reservation", "reservation_seq", "pending_ovf_writer",
        "priority_members", "priority_seq",
    )

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.head: Optional[Who] = None
        self.tail: Optional[Who] = None
        self.gen = 0
        self.reader_cnt = 0                    # overflow-mode readers
        self.writers_waiting = 0               # writers enqueued, not head
        self.reservation: Optional[Tuple[int, int]] = None  # (tid, lcu)
        self.reservation_seq = 0
        self.pending_ovf_writer: Optional[Tuple[int, int]] = None
        # real-time extension: (tid, lcu) of enqueued priority requestors;
        # while non-empty, new ordinary requests are refused so priority
        # holders only wait out the pre-existing queue
        self.priority_members: set = set()
        self.priority_seq = 0

    @property
    def queue_empty(self) -> bool:
        return self.head is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LRT {self.addr:#x} head={self.head} tail={self.tail} "
            f"gen={self.gen} ovf={self.reader_cnt} ww={self.writers_waiting}>"
        )


class LockReservationTable:
    """One LRT, collocated with memory controller ``lrt_id``."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        network: Network,
        lrt_id: int,
        endpoint: Endpoint,
        memory_touch: Optional[Callable[[int, Callable[[], None]], None]] = None,
    ) -> None:
        self._sim = sim
        self._config = config
        self._net = network
        self.lrt_id = lrt_id
        self._endpoint = endpoint
        self._memory_touch = memory_touch

        self._num_sets = max(1, config.lrt_entries // config.lrt_assoc)
        # set index -> OrderedDict[addr, LrtEntry] (LRU order)
        self._sets: Dict[int, "OrderedDict[int, LrtEntry]"] = {}
        self._overflow: Dict[int, LrtEntry] = {}   # "in main memory"
        self._live = 0                             # entries in table + overflow
        self._server = Server(sim, f"lrt{lrt_id}")
        self._remote_retry: Dict[Tuple[int, int, int], int] = {}

        self.stats: Dict[str, int] = {
            "requests": 0, "grants": 0, "forwards": 0, "retries": 0,
            "releases": 0, "overflow_grants": 0, "evictions": 0,
            "refills": 0, "reservations": 0, "head_notifies": 0,
            "stale_notifies": 0, "remote_releases": 0,
        }
        #: most locks simultaneously live (table + overflow) — the
        #: occupancy telemetry behind the spill/refill behaviour
        self.live_locks_highwater = 0
        #: the bus's ``lrt`` topic (see :mod:`repro.sim.bus`)
        self._subs = sim.bus.lrt

    def _emit(self, event: str, addr: int, tid: int, write: bool) -> None:
        # callers test ``self._subs`` first: an unobserved run pays one
        # truth test per event, not a call
        for fn in self._subs:
            fn(event, addr, tid, write)

    # ------------------------------------------------------------------ #
    # table management

    def _set_of(self, addr: int) -> "OrderedDict[int, LrtEntry]":
        # Index with the address bits *above* the home-LRT selection bits
        # (home = line % num_lrts): reusing the low bits would alias every
        # lock homed at this LRT into a single set and thrash the
        # spill/refill path.
        line = addr // self._config.line_size
        idx = (line // self._config.num_lrts) % self._num_sets
        s = self._sets.get(idx)
        if s is None:
            s = OrderedDict()
            self._sets[idx] = s
        return s

    def entry(self, addr: int) -> Optional[LrtEntry]:
        """Current entry for ``addr`` (table or overflow), or None."""
        s = self._set_of(addr)
        e = s.get(addr)
        if e is not None:
            return e
        return self._overflow.get(addr)

    def _lookup_penalty(self, addr: int) -> int:
        """Extra service cycles if this access hits the overflow table or
        will force an eviction."""
        s = self._set_of(addr)
        if addr in s:
            return 0
        pen = 0
        if addr in self._overflow:
            pen += self._config.local_mem_latency      # refill
        if len(s) >= self._config.lrt_assoc:
            pen += self._config.local_mem_latency      # spill a victim
        return pen

    def _install(self, addr: int) -> LrtEntry:
        """Return the live entry for ``addr``, creating / refilling it and
        spilling a victim if the set is full."""
        s = self._set_of(addr)
        e = s.get(addr)
        if e is not None:
            s.move_to_end(addr)
            return e
        e = self._overflow.pop(addr, None)
        if e is not None:
            self.stats["refills"] += 1
            self._touch_memory()
        else:
            e = self._new_entry(addr)
            self._live += 1
            if self._live > self.live_locks_highwater:
                self.live_locks_highwater = self._live
        if len(s) >= self._config.lrt_assoc:
            victim_addr, victim = s.popitem(last=False)
            self._overflow[victim_addr] = victim
            self.stats["evictions"] += 1
            self._touch_memory()
        s[addr] = e
        return e

    def _new_entry(self, addr: int) -> LrtEntry:
        return LrtEntry(addr)

    def _touch_memory(self) -> None:
        """Spills/refills consume memory-controller bandwidth in addition
        to the LRT pipeline latency (charged in the lookup penalty)."""
        if self._memory_touch is not None:
            self._memory_touch(self.lrt_id, lambda: None)

    def _remove(self, addr: int) -> None:
        in_set = self._set_of(addr).pop(addr, None)
        in_ovf = self._overflow.pop(addr, None)
        if in_set is not None or in_ovf is not None:
            self._live -= 1

    @property
    def live_locks(self) -> int:
        return sum(len(s) for s in self._sets.values()) + len(self._overflow)

    # ------------------------------------------------------------------ #
    # plumbing

    def _send_lcu(self, lcu_id: int, m: object) -> None:
        self._net.send(self._endpoint, ("core", lcu_id), m)

    def on_message(self, _src: Endpoint, m: object) -> None:
        """Network delivery: serialize through the LRT pipeline."""
        if m.__class__ is msg.Heartbeat:
            # A liveness beacon has no lock address and takes no
            # pipeline slot; only the recovery layer consumes one.  It
            # still enters here, the LRT's one network entry point.
            self._on_heartbeat(m)
            return
        service = self._config.lrt_latency + self._lookup_penalty(m.addr)
        # Server.request's arithmetic, inlined: one call per message
        server = self._server
        sim = self._sim
        now = sim.now
        free = server._free_at
        done = (free if free > now else now) + service
        server._free_at = done
        server.busy_cycles += service
        server.requests += 1
        sim.at(done, partial(self._process, m))

    def _process(self, m: object) -> None:
        h = _LRT_HANDLERS.get(m.__class__)
        if h is None:
            raise ProtocolError(f"LRT{self.lrt_id}: unexpected message {m!r}")
        getattr(self, h)(m)

    def _on_heartbeat(self, m: msg.Heartbeat) -> None:
        raise ProtocolError(f"LRT{self.lrt_id}: unexpected message {m!r}")

    # ------------------------------------------------------------------ #
    # requests

    def _on_request(self, m: msg.Request) -> None:
        self.stats["requests"] += 1
        req = m.req
        e = self.entry(m.addr)

        if e is None:
            # Lock free: allocate and grant immediately (paper Fig. 4a).
            e = self._install(m.addr)
            e.head = e.tail = req
            e.gen += 1
            if self._subs:
                self._emit("enqueue", m.addr, req.tid, req.write)
            self._grant(req, m.addr, head=True, gen=e.gen)
            return

        e = self._install(m.addr)  # refresh LRU / refill from overflow

        holder = e.reservation
        if holder is not None and holder != (req.tid, req.lcu):
            # A starving nonblocking entry holds a reservation: everyone
            # else is refused so the queue can drain (paper III-D).
            self._retry(req, m.addr, m.seq)
            return

        if e.queue_empty:
            # Lock held only by overflow readers, or free-but-reserved.
            if holder is not None:
                e.reservation = None
                e.reservation_seq += 1
            e.head = e.tail = req
            e.gen += 1
            confirm = req.write and e.reader_cnt > 0
            if self._subs:
                self._emit("enqueue", m.addr, req.tid, req.write)
            self._grant(req, m.addr, head=True, gen=e.gen, confirm=confirm)
            return

        if e.priority_members and not m.priority and not m.nonblocking:
            # A priority requestor is in the queue: hold ordinary
            # arrivals back until it has been served (they retry).
            self._retry(req, m.addr, m.seq)
            return

        if m.nonblocking:
            if (
                not req.write
                and not e.head.write
                and e.writers_waiting == 0
                and e.pending_ovf_writer is None
            ):
                # Overflow-mode read grant: no queue membership.
                e.reader_cnt += 1
                self.stats["overflow_grants"] += 1
                if self._subs:
                    self._emit("overflow_grant", m.addr, req.tid, req.write)
                    self._emit("enqueue", m.addr, req.tid, req.write)
                    self._emit("grant_sent", m.addr, req.tid, req.write)
                self._send_lcu(
                    req.lcu,
                    msg.Grant(
                        m.addr, req.tid, head=False, gen=e.gen,
                        from_lrt=True, overflow=True,
                    ),
                )
                return
            self._retry(req, m.addr, m.seq)
            if e.reservation is None:
                e.reservation = (req.tid, req.lcu)
                e.reservation_seq += 1
                self.stats["reservations"] += 1
                self._schedule_reservation_timeout(m.addr, e.reservation_seq)
            return

        if m.priority:
            self._register_priority(e, m.addr, req)

        # Ordinary request on a taken lock: enqueue at the tail.
        if (
            not req.write
            and not e.head.write
            and e.writers_waiting == 0
            and e.pending_ovf_writer is None
        ):
            # The lock is in a writer-free read phase — a fact only the
            # LRT can know instantly (every request serializes here).
            # Grant the read share directly instead of waiting for it to
            # ripple hop-by-hop down the reader chain; the forward below
            # still links the requestor into the queue for fairness and
            # token passing.  (Same safety argument as overflow grants:
            # decisions are serialized at the LRT, and any later writer
            # enqueues behind this reader.)
            self.stats["grants"] += 1
            if self._subs:
                self._emit("grant", m.addr, req.tid, req.write)
                self._emit("grant_sent", m.addr, req.tid, req.write)
            self._send_lcu(
                req.lcu,
                msg.Grant(m.addr, req.tid, head=False, gen=e.gen,
                          from_lrt=True),
            )
        self._forward(e, m.addr, req, m.seq)

    def _forward(
        self, e: LrtEntry, addr: int, req: Who, req_seq: int
    ) -> None:
        assert e.tail is not None
        self.stats["forwards"] += 1
        if self._subs:
            self._emit("forward", addr, req.tid, req.write)
            self._emit("enqueue", addr, req.tid, req.write)
        fwd = msg.FwdRequest(
            addr=addr,
            tail_tid=e.tail.tid,
            tail_lcu=e.tail.lcu,
            tail_write=e.tail.write,
            req=req,
            gen=e.gen,
            confirm_required=bool(req.write and e.reader_cnt > 0),
            req_seq=req_seq,
        )
        self._send_lcu(e.tail.lcu, fwd)
        e.tail = req
        if req.write:
            e.writers_waiting += 1

    def _register_priority(self, e: LrtEntry, addr: int, req: Who) -> None:
        """Open (or refresh) a bounded *priority window*: while members
        are registered, ordinary requests are deferred with RETRY, so a
        periodic real-time task re-acquiring the lock waits out only the
        current holder rather than a rebuilt queue.  The window closes
        after ``lrt_reservation_timeout`` cycles — clearing is
        deliberately timeout-only, because priority readers can release
        silently (RD_REL) with no LRT-visible event."""
        e.priority_members.add((req.tid, req.lcu))
        e.priority_seq += 1
        seq = e.priority_seq
        self.stats["priority_requests"] = (
            self.stats.get("priority_requests", 0) + 1
        )
        self._sim.after(
            self._config.lrt_reservation_timeout,
            lambda: self._priority_expire(addr, seq),
        )

    def _priority_expire(self, addr: int, seq: int) -> None:
        e = self.entry(addr)
        if e is not None and e.priority_seq == seq and e.priority_members:
            e.priority_members.clear()
            self._finalize(e)

    def _grant(
        self, req: Who, addr: int, head: bool, gen: int, confirm: bool = False
    ) -> None:
        self.stats["grants"] += 1
        if self._subs:
            self._emit("grant", addr, req.tid, req.write)
            self._emit("grant_sent", addr, req.tid, req.write)
        self._send_lcu(
            req.lcu,
            msg.Grant(
                addr, req.tid, head=head, gen=gen,
                from_lrt=True, confirm_required=confirm,
            ),
        )

    def _retry(self, req: Who, addr: int, seq: int) -> None:
        self.stats["retries"] += 1
        if self._subs:
            self._emit("retry", addr, req.tid, req.write)
        self._send_lcu(req.lcu, msg.Retry(addr, req.tid, seq=seq))

    # ------------------------------------------------------------------ #
    # releases

    def _on_release(self, m: msg.ReleaseMsg) -> None:
        self.stats["releases"] += 1
        if self.entry(m.addr) is None:
            raise ProtocolError(
                f"LRT{self.lrt_id}: release {m!r} for unknown lock"
            )
        e = self._install(m.addr)
        rel = m.rel

        if m.overflow:
            if e.reader_cnt <= 0:
                raise ProtocolError(f"overflow release underflow: {m!r}")
            e.reader_cnt -= 1
            self._send_lcu(rel.lcu, msg.ReleaseAck(m.addr, rel.tid))
            self._drained_check(e)
            return

        if e.head is not None and (e.head.tid, e.head.lcu) == (rel.tid, rel.lcu):
            if e.tail is not None and (e.tail.tid, e.tail.lcu) == (
                rel.tid, rel.lcu,
            ):
                # Sole queue node released: the queue is now empty.
                e.head = e.tail = None
                self._send_lcu(rel.lcu, msg.ReleaseAck(m.addr, rel.tid))
                self._finalize(e)
            else:
                # Release/enqueue race: a requestor is already on its way
                # to the releaser (paper III-A).
                self._send_lcu(
                    rel.lcu, msg.ReleaseRetry(m.addr, rel.tid, e.gen)
                )
            return

        # Release from an LCU that is not the head: a migrated thread
        # (paper III-C).  Walk the queue starting at the head.
        if e.head is None:
            raise ProtocolError(
                f"LRT{self.lrt_id}: non-head release {m!r} with empty queue"
            )
        self.stats["remote_releases"] += 1
        self._send_lcu(
            e.head.lcu,
            msg.RemoteRelease(
                m.addr, rel.tid, rel.write, rel.lcu, e.head.tid
            ),
        )

    def _drained_check(self, e: LrtEntry) -> None:
        if e.reader_cnt == 0 and e.pending_ovf_writer is not None:
            tid, lcu = e.pending_ovf_writer
            e.pending_ovf_writer = None
            self._send_lcu(lcu, msg.OvfClear(e.addr, tid))
        self._finalize(e)

    def _finalize(self, e: LrtEntry) -> None:
        """Remove the entry once nothing references the lock anymore.
        An open priority window keeps the entry (and the window) alive
        across idle gaps until it expires."""
        if (
            e.queue_empty
            and e.reader_cnt == 0
            and e.reservation is None
            and not e.priority_members
        ):
            self._remove(e.addr)

    # ------------------------------------------------------------------ #
    # head tracking

    def _on_head_notify(self, m: msg.HeadNotify) -> None:
        self.stats["head_notifies"] += 1
        if self.entry(m.addr) is None:
            raise ProtocolError(
                f"LRT{self.lrt_id}: head notify {m!r} for unknown lock"
            )
        e = self._install(m.addr)
        if m.gen > e.gen:
            old = e.head
            e.head = m.new
            e.gen = m.gen
            if m.new.write:
                e.writers_waiting = max(0, e.writers_waiting - 1)
                if e.reader_cnt > 0:
                    e.pending_ovf_writer = (m.new.tid, m.new.lcu)
            if old is not None:
                self._send_lcu(old.lcu, msg.Dealloc(m.addr, old.tid))
        else:
            # Stale notification: the notifier has already passed the lock
            # on (it is REL by now) — reclaim its entry directly.
            self.stats["stale_notifies"] += 1
            self._send_lcu(m.new.lcu, msg.Dealloc(m.addr, m.new.tid))

    def _on_ovf_check(self, m: msg.OvfCheck) -> None:
        e = self.entry(m.addr)
        if e is None or e.reader_cnt == 0:
            self._send_lcu(m.lcu, msg.OvfClear(m.addr, m.tid))
            return
        e.pending_ovf_writer = (m.tid, m.lcu)

    # ------------------------------------------------------------------ #
    # nack recovery

    def _on_fwd_nack(self, m: msg.FwdNack) -> None:
        """Target LCU had no room to re-allocate the tail entry; retry
        after a backoff (entries free up as transfers complete)."""
        fwd = m.original
        self._sim.after(
            _FWD_RETRY_BACKOFF, lambda: self._send_lcu(fwd.tail_lcu, fwd)
        )

    def _on_remote_nack(self, m: msg.RemoteReleaseNack) -> None:
        e = self.entry(m.addr)
        origin_ack = lambda: self._send_lcu(  # noqa: E731
            m.origin_lcu, msg.ReleaseAck(m.addr, m.target_tid)
        )
        if e is None:
            # The lock got fully released by another path; just ack.
            origin_ack()
            return
        e = self._install(m.addr)
        head = e.head
        if (
            head is not None
            and head.tid == m.target_tid
            and e.tail is not None
            and e.tail.tid == m.target_tid
            and e.tail.lcu == head.lcu
        ):
            # Single-node queue owned by the migrated releaser whose old
            # entry was deallocated (uncontended): the lock is now free.
            e.head = e.tail = None
            origin_ack()
            self._drained_check(e)
            return
        key = (m.addr, m.target_tid, m.origin_lcu)
        attempts = self._remote_retry.get(key, 0) + 1
        self._remote_retry[key] = attempts
        if attempts <= _REMOTE_RETRY_MAX and head is not None:
            walk = msg.RemoteRelease(
                m.addr, m.target_tid, m.write, m.origin_lcu, head.tid
            )
            self._sim.after(
                _REMOTE_RETRY_BACKOFF,
                lambda: self._send_lcu(head.lcu, walk),
            )
            return
        self._remote_retry.pop(key, None)
        if not m.write and e.reader_cnt > 0:
            # Conservative fallback: treat as an overflow reader whose
            # grant tag was lost to migration (documented in DESIGN.md).
            e.reader_cnt -= 1
            origin_ack()
            self._drained_check(e)
            return
        self._unresolved_remote_release(m)

    def _unresolved_remote_release(self, m: msg.RemoteReleaseNack) -> None:
        raise ProtocolError(
            f"LRT{self.lrt_id}: cannot resolve remote release {m!r}"
        )

    # ------------------------------------------------------------------ #
    # reservation timeout

    def _schedule_reservation_timeout(self, addr: int, seq: int) -> None:
        self._sim.after(
            self._config.lrt_reservation_timeout,
            lambda: self._reservation_expire(addr, seq),
        )

    def _reservation_expire(self, addr: int, seq: int) -> None:
        e = self.entry(addr)
        if e is None or e.reservation is None or e.reservation_seq != seq:
            return
        if e.head is not None:
            # The queue is still draining toward the reserved entry.
            # Expiring now would let fresh requests join the tail, so a
            # queue whose grants keep timing out past migrated threads
            # would never drain: the timeout only reclaims a
            # reservation its holder abandoned on a free lock.
            self._schedule_reservation_timeout(addr, seq)
            return
        e.reservation = None
        e.reservation_seq += 1
        self._finalize(e)


# Message dispatch table mirroring the LCU's: one dict probe + one
# attribute fetch per message instead of an isinstance chain.  Keyed by
# exact class: messages are NamedTuple records, never subclassed.  Values
# are method names, resolved per call, so monkeypatched handlers still
# take.  The recovery layer dispatches through a wider table.
_LRT_HANDLERS: dict = {
    msg.Request: "_on_request",
    msg.ReleaseMsg: "_on_release",
    msg.HeadNotify: "_on_head_notify",
    msg.OvfCheck: "_on_ovf_check",
    msg.FwdNack: "_on_fwd_nack",
    msg.RemoteReleaseNack: "_on_remote_nack",
}
