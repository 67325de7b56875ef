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
  latency for spills and refills.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.lcu import messages as msg
from repro.lcu.lcu import RECLAIM_GEN_STRIDE, ProtocolError
from repro.lcu.messages import Who
from repro.net.network import Endpoint, Network
from repro.params import MachineConfig
from repro.sim.engine import Server, Simulator

_FWD_RETRY_BACKOFF = 300      # cycles before re-sending a nacked forward
_REMOTE_RETRY_BACKOFF = 300
_REMOTE_RETRY_MAX = 12

# Lease / revocation handshake (crash recovery, hardened mode).  A probe
# that goes unanswered is retried with exponential backoff; after the cap
# the probed head is declared dead and the queue is revoked.  A reclaim's
# QueueReset broadcast is likewise re-sent to unresponsive LCUs, and
# after the cap the reclaim completes with the survivors it heard from
# (graceful degradation — unreachable in-model unless an LCU dies
# *between* the broadcast and the crash notification).
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


class LrtEntry:
    """Lock state for one address (paper Figure 3, LRT side)."""

    __slots__ = (
        "addr", "head", "tail", "gen", "reader_cnt", "writers_waiting",
        "reservation", "reservation_seq", "pending_ovf_writer",
        "priority_members", "priority_seq",
        "last_activity", "reclaim_gen", "reset_pending", "probing",
        "lease_expiry", "probe_seq", "probe_attempts", "last_alive_probe",
        "reset_seq", "reset_attempts", "reset_survivor",
        "reclaim_victim", "reset_reader_tids",
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
        # hardened-mode recovery state (see repro.faults): cycle of the
        # last message touching this lock (watchdog orphan detection),
        # the generation below which in-flight messages belong to a
        # reclaimed era and must be dropped, the set of LCU ids whose
        # QueueResetAck is still outstanding, and whether a liveness
        # probe is already in flight
        self.last_activity = 0
        self.reclaim_gen = 0
        self.reset_pending: set = set()
        self.probing = False
        # lease-based crash recovery: the deadline stamped on the last
        # grant issued for this lock; probe retry bookkeeping (seq
        # invalidates stale timeout events, attempts cap the retries);
        # the snapshot of the last alive-but-not-holding probe answer
        # (two identical snapshots a full silent window apart == the
        # queue is wedged behind crashed state -> revoke); reset
        # re-broadcast bookkeeping for the revocation handshake.
        self.lease_expiry = 0
        self.probe_seq = 0
        self.probe_attempts = 0
        self.last_alive_probe: Optional[tuple] = None
        self.reset_seq = 0
        self.reset_attempts = 0
        # live writer reported by a QueueResetAck: re-seated as the new
        # era's queue head when the reset completes (see _reset_complete)
        self.reset_survivor: Optional[Who] = None
        # gray-failure fencing bookkeeping: the queue head whose lease
        # the in-flight reclaim revoked (the fence victim unless it is
        # re-seated), and the read holders live LCUs enumerated in their
        # acks (everything else holding this lock is fenced out)
        self.reclaim_victim: Optional[Who] = None
        self.reset_reader_tids: set = set()

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
        # hardened-mode recovery (armed by harden(); see repro.faults)
        self.hardened = False
        self._watchdog_interval = 0
        self._silence_threshold = 0
        self._lease_cycles = 0
        #: fencing armed (harden(fencing=True)): releases bearing a
        #: fence token from a reclaimed era are rejected with a
        #: structured FencedOperation instead of acked idempotently
        self._fencing = False
        #: addr -> fence era (count of lease reclamations); the "era"
        #: half of the (era, fence) token pair stamped on grants
        self._era: Dict[int, int] = {}
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
        #: addr -> last reclaim era.  LCUs filter dead-era traffic with a
        #: persistent per-addr fence, so the generation must stay
        #: monotonic across entry removal/reinstall; only reclaims write
        #: here, so unfaulted runs never populate it.
        self._gen_floor: Dict[int, int] = {}
        #: addr -> highest generation ever issued (hardened mode):
        #: recorded when an entry is fully removed so a later reinstall
        #: resumes *above* every gen of the previous queue episode.
        #: Without this, gens restart at 1 and a delayed message from
        #: the old episode (e.g. a retransmitted HeadNotify with gen=9)
        #: outranks the fresh queue's gens, corrupting the head pointer
        #: and routing a Dealloc to the wrong LCU.  Distinct from
        #: ``_gen_floor``: the floor also fences releases, and a benign
        #: late duplicate release from the old episode must be *acked*,
        #: not fenced.
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
        #: most locks simultaneously live (table + overflow) — the
        #: occupancy telemetry behind the spill/refill behaviour
        self.live_locks_highwater = 0
        #: the bus's ``lrt`` topic (see :mod:`repro.sim.bus`)
        self._subs = sim.bus.lrt

    def _emit(self, event: str, addr: int, tid: int, write: bool) -> None:
        if self._subs:
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
            e = LrtEntry(addr)
            floor = self._gen_floor.get(addr)
            if floor is not None:
                # Resume the post-reclaim era: a fresh gen of 1 would be
                # rejected by the LCUs' dead-era fences.
                e.gen = e.reclaim_gen = floor
            if self.hardened:
                high = self._gen_high.get(addr)
                if high is not None and high > e.gen:
                    # Resume above the previous queue episode so its
                    # delayed traffic can never outrank fresh grants.
                    e.gen = high
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

    def _touch_memory(self) -> None:
        """Spills/refills consume memory-controller bandwidth in addition
        to the LRT pipeline latency (charged in the lookup penalty)."""
        if self._memory_touch is not None:
            self._memory_touch(self.lrt_id, lambda: None)

    def _remove(self, addr: int) -> None:
        in_set = self._set_of(addr).pop(addr, None)
        in_ovf = self._overflow.pop(addr, None)
        gone = in_set if in_set is not None else in_ovf
        if gone is not None:
            self._live -= 1
            if self.hardened and gone.gen > self._gen_high.get(addr, 0):
                self._gen_high[addr] = gone.gen

    @property
    def live_locks(self) -> int:
        return sum(len(s) for s in self._sets.values()) + len(self._overflow)

    # ------------------------------------------------------------------ #
    # plumbing

    def _send_lcu(self, lcu_id: int, m: object) -> None:
        self._net.send(self._endpoint, ("core", lcu_id), m)

    def on_message(self, _src: Endpoint, m: object) -> None:
        """Network delivery: serialize through the LRT pipeline.
        Heartbeats are liveness beacons, not queue operations: they are
        absorbed here (no lock address, no pipeline slot) so a beating
        core can never be delayed behind lock traffic."""
        if m.__class__ is msg.Heartbeat:
            self._last_heartbeat[m.core] = self._sim.now
            return
        penalty = self._lookup_penalty(self._addr_of(m))
        self._server.request(
            self._config.lrt_latency + penalty, lambda: self._process(m)
        )

    @staticmethod
    def _addr_of(m: object) -> int:
        return m.addr  # every LRT message carries the lock address

    def _process(self, m: object) -> None:
        if self.hardened:
            e = self.entry(m.addr)  # type: ignore[attr-defined]
            if e is not None:
                e.last_activity = self._sim.now
        h = _LRT_HANDLERS.get(m.__class__)
        if h is None:
            raise ProtocolError(f"LRT{self.lrt_id}: unexpected message {m!r}")
        getattr(self, h)(m)

    # ------------------------------------------------------------------ #
    # hardened mode: orphan detection and queue reclamation

    def harden(
        self,
        watchdog_interval: int = 20_000,
        silence_threshold: int = 50_000,
        lease_cycles: Optional[int] = None,
        fencing: bool = True,
    ) -> None:
        """Arm fault tolerance: tolerate the message anomalies the
        nemesis injects (stray releases, stale notifications, dead queue
        nodes) and run an idle-queue watchdog that probes queues silent
        for ``silence_threshold`` cycles and reclaims orphans.  Grants
        issued while hardened carry a lease expiring ``lease_cycles``
        after issue (default: the silence threshold); a queue that stays
        silent past its lease with a head that is provably not holding
        is revoked by the lease watchdog (crash recovery).

        ``fencing`` additionally arms fence-token enforcement: a
        release whose generation predates the address's reclaim floor —
        a zombie holder whose lease was revoked while it was stalled or
        partitioned away — is rejected with a structured
        :class:`~repro.lcu.messages.FencedOperation` instead of the
        idempotent ack (which would be silent success).  ``False`` is
        the sabotage mode the zombie-writer invariant check must catch.
        """
        if self.hardened:
            return
        self.hardened = True
        self._fencing = fencing
        self._watchdog_interval = watchdog_interval
        self._silence_threshold = silence_threshold
        self._lease_cycles = (
            lease_cycles if lease_cycles is not None else silence_threshold
        )
        self._sim.after(watchdog_interval, self._watchdog_tick)

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
        self.stats["dead_core_notes"] = (
            self.stats.get("dead_core_notes", 0) + 1
        )
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
                # that wedge is detected by the lease watchdog below.

    def note_live_core(self, core: int) -> None:
        """Rebirth notification (machine.restart_core): the core's LCU is
        back — empty — and reset broadcasts include it again.  The
        failure detector grants it a fresh innocence window so the
        first probe after rebirth is not instantly fast-laddered."""
        self._dead_cores.discard(core)
        if self._hb_on:
            self._last_heartbeat[core] = self._sim.now

    def _watchdog_tick(self) -> None:
        if not self.hardened:
            return
        now = self._sim.now
        for store in list(self._sets.values()) + [self._overflow]:
            for e in list(store.values()):
                if (
                    e.head is not None
                    and not e.reset_pending
                    and not e.probing
                    and now - e.last_activity >= self._silence_threshold
                    and now >= e.lease_expiry
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

    def _send_probe(self, e: LrtEntry, attempt: int) -> None:
        e.probing = True
        e.probe_attempts = attempt
        e.probe_seq += 1
        seq = e.probe_seq
        addr = e.addr
        self.stats["probes"] = self.stats.get("probes", 0) + 1
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
            self.stats["probe_timeouts"] = (
                self.stats.get("probe_timeouts", 0) + 1
            )
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
        # died (crashed middle node): the lease is expired, revoke.
        snap = (m.tid, e.head.lcu, e.gen)
        if e.last_alive_probe == snap:
            e.last_alive_probe = None
            self.stats["lease_revocations"] = (
                self.stats.get("lease_revocations", 0) + 1
            )
            self._reclaim(self._install(m.addr), "lease")
            return
        e.last_alive_probe = snap

    def _on_grant_nack(self, m: msg.GrantNack) -> None:
        """A grant hit a dead LCU entry.  If it carried the Head token,
        the token is lost and the whole queue behind it is orphaned —
        reclaim.  A share grant to a dead reader needs nothing: the dead
        node is still linked and passes the token on when it arrives."""
        if not self.hardened:
            raise ProtocolError(f"LRT{self.lrt_id}: unexpected message {m!r}")
        self.stats["grant_nacks"] = self.stats.get("grant_nacks", 0) + 1
        e = self.entry(m.addr)
        if e is None or m.gen < e.reclaim_gen or not m.head:
            return  # stale echo of an era already reclaimed
        self._reclaim(self._install(m.addr), "grant_nack")

    def _reclaim(self, e: LrtEntry, reason: str) -> None:
        """The queue for ``e.addr`` is orphaned: the Head token died with
        an evicted node.  Open a new era (generation jump), wipe the
        queue pointers, and broadcast ``QueueReset`` so every LCU drops
        its dead-era nodes and reports its surviving read holders."""
        if e.reset_pending:
            return
        self.stats["reclaims"] = self.stats.get("reclaims", 0) + 1
        self.stats[f"reclaims_{reason}"] = (
            self.stats.get(f"reclaims_{reason}", 0) + 1
        )
        self._reclaim_started[e.addr] = self._sim.now
        self._era[e.addr] = self._era.get(e.addr, 0) + 1
        e.reclaim_victim = e.head
        e.reset_reader_tids = set()
        e.gen += RECLAIM_GEN_STRIDE
        e.reclaim_gen = e.gen
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
            self.stats["reset_forced"] = self.stats.get("reset_forced", 0) + 1
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
        self.stats["reset_rebroadcasts"] = (
            self.stats.get("reset_rebroadcasts", 0) + len(e.reset_pending)
        )
        for lcu_id in e.reset_pending:
            self._send_lcu(lcu_id, msg.QueueReset(addr, e.reclaim_gen))
        delay = min(_RESET_RETRY_BACKOFF << e.reset_attempts, _RESET_RETRY_CAP)
        self._sim.after(delay, lambda: self._reset_check(addr, seq))

    def _reset_complete(self, e: LrtEntry) -> None:
        """Every live LCU has acknowledged the reset (or the handshake
        force-completed): the new era is open for business."""
        started = self._reclaim_started.pop(e.addr, None)
        if started is not None:
            self.recovery_latencies.append(self._sim.now - started)
        if e.reset_survivor is not None and e.head is None:
            # A live writer survived the reclaim still owning the lock
            # (the dead node was a tail or middle): re-seat it as the
            # new era's head so requests enqueue behind it instead of
            # being granted over a live write hold.  Fresh lease: the
            # survivor starts a new observation window.
            e.head = e.tail = e.reset_survivor
            self._lease_stamp(e)
            self.stats["reset_reseats"] = (
                self.stats.get("reset_reseats", 0) + 1
            )
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

    # ------------------------------------------------------------------ #
    # requests

    def _on_request(self, m: msg.Request) -> None:
        self.stats["requests"] += 1
        req = m.req
        e = self.entry(m.addr)

        if e is not None and e.reset_pending:
            # Mid-reclaim: surviving reader counts are still being
            # collected, so a grant issued now could skip the overflow
            # drain.  Refuse; the software layer re-requests.
            self._retry(req, m.addr, m.seq)
            return

        synced = self._unsynced.get(m.addr)
        if synced and req.lcu in synced:
            # Fenced rejoin: the requesting core never acknowledged the
            # reset that closed its era and still carries dead-era
            # nodes.  Refuse until its late QueueResetAck lands (the
            # reliable channel delivers the reset before this Retry,
            # and the ack before the re-request, so the gate lifts in
            # bounded time).
            self.stats["rejoin_retries"] = (
                self.stats.get("rejoin_retries", 0) + 1
            )
            self._retry(req, m.addr, m.seq)
            return

        if e is None:
            # Lock free: allocate and grant immediately (paper Fig. 4a).
            e = self._install(m.addr)
            e.head = e.tail = req
            e.gen += 1
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
                self._emit("overflow_grant", m.addr, req.tid, req.write)
                self._emit("enqueue", m.addr, req.tid, req.write)
                self._emit("grant_sent", m.addr, req.tid, req.write)
                self._send_lcu(
                    req.lcu,
                    msg.Grant(
                        m.addr, req.tid, head=False, gen=e.gen,
                        from_lrt=True, overflow=True,
                        lease=self._lease_stamp(e),
                        era=self._era.get(m.addr, 0),
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
            self._emit("grant", m.addr, req.tid, req.write)
            self._emit("grant_sent", m.addr, req.tid, req.write)
            self._send_lcu(
                req.lcu,
                msg.Grant(m.addr, req.tid, head=False, gen=e.gen,
                          from_lrt=True, lease=self._lease_stamp(e),
                          era=self._era.get(m.addr, 0)),
            )
        self._forward(e, m.addr, req, m.seq)

    def _forward(
        self, e: LrtEntry, addr: int, req: Who, req_seq: int = 0
    ) -> None:
        assert e.tail is not None
        self.stats["forwards"] += 1
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

    def _lease_stamp(self, e: LrtEntry) -> int:
        """Lease deadline to stamp on a grant being issued now (0 when
        not hardened: unleased).  Also pushes the entry's own expiry out,
        so the lease watchdog never second-guesses a fresh grant."""
        if not self.hardened:
            return 0
        lease = self._sim.now + self._lease_cycles
        if lease > e.lease_expiry:
            e.lease_expiry = lease
        return lease

    def _grant(
        self, req: Who, addr: int, head: bool, gen: int, confirm: bool = False
    ) -> None:
        self.stats["grants"] += 1
        self._emit("grant", addr, req.tid, req.write)
        self._emit("grant_sent", addr, req.tid, req.write)
        e = self.entry(addr)
        lease = self._lease_stamp(e) if e is not None else 0
        self._send_lcu(
            req.lcu,
            msg.Grant(
                addr, req.tid, head=head, gen=gen,
                from_lrt=True, confirm_required=confirm, lease=lease,
                era=self._era.get(addr, 0),
            ),
        )

    def _retry(self, req: Who, addr: int, seq: int = 0) -> None:
        self.stats["retries"] += 1
        self._emit("retry", addr, req.tid, req.write)
        self._send_lcu(req.lcu, msg.Retry(addr, req.tid, seq=seq))

    # ------------------------------------------------------------------ #
    # releases

    def _on_release(self, m: msg.ReleaseMsg) -> None:
        self.stats["releases"] += 1
        e = self.entry(m.addr)
        if self._fenced_release(e, m):
            return
        if e is None:
            if self.hardened:
                # A release whose lock state is gone (reclaimed, or the
                # queue drained through another path while this message
                # was delayed).  Acking is safe — the holder is done
                # either way — and keeps the releasing entry from
                # leaking.
                self.stats["stray_releases"] = (
                    self.stats.get("stray_releases", 0) + 1
                )
                self._send_lcu(m.rel.lcu, msg.ReleaseAck(m.addr, m.rel.tid))
                return
            raise ProtocolError(
                f"LRT{self.lrt_id}: release {m!r} for unknown lock"
            )
        e = self._install(m.addr)
        rel = m.rel

        if e.reset_survivor is not None and e.reset_survivor.tid == rel.tid:
            # The surviving writer a reset ack reported released while
            # the handshake was still collecting: its hold is over, so
            # it must not be re-seated as the new era's head (a stale
            # re-seat self-links on its next request).
            e.reset_survivor = None

        if m.overflow:
            if e.reader_cnt <= 0:
                if self.hardened:
                    # Duplicate overflow release (wire dup, or a convert-
                    # then-drain race): the holder is gone, the count
                    # already reflects it.  Ack idempotently.
                    self.stats["stray_releases"] = (
                        self.stats.get("stray_releases", 0) + 1
                    )
                    self._send_lcu(rel.lcu, msg.ReleaseAck(m.addr, rel.tid))
                    return
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
            if self.hardened:
                # Queue was reclaimed out from under a holder we did not
                # know about; the release is moot.  Ack and re-check
                # whether the entry can be retired.
                self.stats["stray_releases"] = (
                    self.stats.get("stray_releases", 0) + 1
                )
                self._send_lcu(rel.lcu, msg.ReleaseAck(m.addr, rel.tid))
                self._drained_check(e)
                return
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

    def _fenced_release(self, e: Optional[LrtEntry], m: msg.ReleaseMsg) -> bool:
        """Fence-token check on a release (gray-failure hardening).

        A release whose ``gen`` predates the address's reclaim floor was
        issued under a lease era that has since been reclaimed — its
        sender is a zombie that stalled through its lease and resumed.
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
            or m.gen < 0                         # legacy wildcard
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
        self.stats["fenced_releases"] = (
            self.stats.get("fenced_releases", 0) + 1
        )
        self._send_lcu(
            rel.lcu,
            msg.FencedOperation(
                m.addr, rel.tid, "release",
                era=m.era, current_era=self._era.get(m.addr, 0),
                gen=m.gen,
            ),
        )
        return True

    def _drained_check(self, e: LrtEntry) -> None:
        if e.reader_cnt == 0 and e.pending_ovf_writer is not None:
            tid, lcu = e.pending_ovf_writer
            e.pending_ovf_writer = None
            self._send_lcu(lcu, msg.OvfClear(e.addr, tid))
        self._finalize(e)

    def _finalize(self, e: LrtEntry) -> None:
        """Remove the entry once nothing references the lock anymore.
        An open priority window keeps the entry (and the window) alive
        across idle gaps until it expires, and a reclaim-in-progress
        keeps it alive until every LCU has acknowledged the reset (the
        era fence in ``reclaim_gen`` must survive until then)."""
        if (
            e.queue_empty
            and e.reader_cnt == 0
            and e.reservation is None
            and not e.priority_members
            and not e.reset_pending
        ):
            self._remove(e.addr)

    # ------------------------------------------------------------------ #
    # head tracking

    def _on_head_notify(self, m: msg.HeadNotify) -> None:
        self.stats["head_notifies"] += 1
        e = self.entry(m.addr)
        if e is None:
            if self.hardened:
                # Delayed notification for a lock that has since been
                # fully released or reclaimed: reclaim the notifier's
                # REL entry and move on.
                self.stats["stale_notifies"] += 1
                self._send_lcu(m.new.lcu, msg.Dealloc(m.addr, m.new.tid))
                return
            raise ProtocolError(
                f"LRT{self.lrt_id}: head notify {m!r} for unknown lock"
            )
        e = self._install(m.addr)
        if self.hardened and m.gen < e.reclaim_gen:
            # Dead-era notification racing the reset broadcast: the
            # queue it describes no longer exists.
            self.stats["stale_notifies"] += 1
            self._send_lcu(m.new.lcu, msg.Dealloc(m.addr, m.new.tid))
            return
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
        after a backoff (entries free up as transfers complete).  In
        hardened mode a nack can also mean the forward referenced a
        dead-era tail (phantom refusal) — those are dropped, the
        requestor re-enters via RETRY/reclaim instead."""
        fwd = m.original
        if self.hardened:
            e = self.entry(m.addr)
            if e is None or fwd.gen < e.reclaim_gen:
                self.stats["stale_fwds_dropped"] = (
                    self.stats.get("stale_fwds_dropped", 0) + 1
                )
                # The forwarded requestor's WAIT node died with the old
                # era (the QueueReset broadcast frees it and wakes the
                # thread); nothing to redeliver.
                return
            if m.phantom:
                # Current-era phantom: the target LCU has no trace of
                # the named tail holding anything, and that state cannot
                # reappear — the queue chain is broken at this link for
                # good.  Retrying would eventually false-match a *newer*
                # entry that reuses the tail's (addr, tid) key (e.g. the
                # healed zombie's next request), splicing a stale link
                # into the live queue and closing a cycle.  Reclaim
                # instead: the reset frees every waiter (including the
                # forwarded requestor) to re-enter the new era cleanly.
                self._reclaim(self._install(m.addr), "phantom_tail")
                return
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
        if self.hardened:
            # The walked-for node is unreachable — under fault injection
            # that means it died with a reclaimed era.  The release is
            # moot; ack the origin so its REL entry frees, and let the
            # watchdog reclaim the queue if it is truly wedged.
            self.stats["unresolved_remote_releases"] = (
                self.stats.get("unresolved_remote_releases", 0) + 1
            )
            origin_ack()
            return
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
        e.reservation = None
        e.reservation_seq += 1
        self._finalize(e)


# Message dispatch table mirroring the LCU's: one dict probe + one
# attribute fetch per message instead of a 9-branch isinstance chain.
# Keyed by exact class — LRT messages are final dataclasses.  Values are
# method names, resolved per call, so monkeypatched handlers still take.
_LRT_HANDLERS: dict = {
    msg.Request: "_on_request",
    msg.ReleaseMsg: "_on_release",
    msg.HeadNotify: "_on_head_notify",
    msg.OvfCheck: "_on_ovf_check",
    msg.FwdNack: "_on_fwd_nack",
    msg.RemoteReleaseNack: "_on_remote_nack",
    msg.GrantNack: "_on_grant_nack",
    msg.QueueResetAck: "_on_reset_ack",
    msg.QueueProbeAck: "_on_probe_ack",
}
