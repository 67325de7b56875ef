"""Machine assembly: wires simulator, network, memory, LCUs, LRTs, SSB.

A :class:`Machine` is one simulated multiprocessor built from a
:class:`~repro.params.MachineConfig` (Model A, Model B, or a test model).
Endpoints on the interconnect:

* ``("core", i)`` — core *i* and its collocated LCU (lock messages) plus
  the L1 fill target (coherence replies).
* ``("dir", j)`` — the directory slice at memory controller *j*.
* ``("lrt", j)`` — the Lock Reservation Table at memory controller *j*.
* ``("ssb", j)`` — the SSB bank at controller *j* (baseline hardware).
"""

from __future__ import annotations

from typing import Callable

from repro.lcu import messages as lcu_msgs
from repro.lcu.lcu import LockControlUnit, ProtocolError
from repro.lcu.lrt import LockReservationTable
from repro.mem.memory import Allocator, MemorySystem
from repro.net.network import Endpoint, Network
from repro.params import MachineConfig
from repro.sim.engine import Simulator
from repro.ssb.ssb import SSB

#: protocol records a core's LCU handles.  Records are tuple
#: subclasses, so the core handler tells them apart by class from the
#: plain-tuple ``("fill",)`` / ``("ssb-reply",)`` replies of the memory
#: system and the SSB.
_LCU_MESSAGE_TYPES = frozenset((
    lcu_msgs.Grant, lcu_msgs.FwdRequest, lcu_msgs.WaitMsg, lcu_msgs.Retry,
    lcu_msgs.ReleaseAck, lcu_msgs.ReleaseRetry, lcu_msgs.Dealloc,
    lcu_msgs.OvfClear, lcu_msgs.RemoteRelease, lcu_msgs.RemoteReleaseAck,
    lcu_msgs.QueueReset, lcu_msgs.QueueProbe, lcu_msgs.FencedOperation,
))


class Machine:
    """One simulated multiprocessor instance.

    ``tiebreak_seed`` perturbs same-cycle event ordering (see
    :class:`repro.sim.engine.Simulator`); the schedule fuzzer uses it to
    explore alternative interleavings deterministically.  Both orders
    run on the one event store and loop.
    """

    def __init__(
        self, config: MachineConfig, tiebreak_seed: "int | None" = None,
    ) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator(tiebreak_seed=tiebreak_seed)
        self.net = Network(self.sim, config, self._chip_of)
        self.alloc = Allocator(config.line_size)

        # Cores / LCU endpoints first (memory + LRTs send to them).
        self.lcus = []
        for i in range(config.cores):
            self.net.register(("core", i), self._core_handler(i))

        self.mem = MemorySystem(
            self.sim, config, self.net,
            core_endpoint=lambda i: ("core", i),
            dir_endpoint=lambda j: ("dir", j),
        )

        self.lrts = []
        for j in range(config.num_lrts):
            lrt = LockReservationTable(
                self.sim, config, self.net, j, ("lrt", j),
                memory_touch=self.mem.memory_touch,
            )
            self.net.register(("lrt", j), lrt.on_message)
            self.lrts.append(lrt)

        for i in range(config.cores):
            self.lcus.append(
                LockControlUnit(
                    self.sim, config, self.net, i, ("core", i),
                    lrt_endpoint_of=lambda addr: ("lrt", self.mem.home_of(addr)),
                )
            )

        self.ssb = SSB(self.sim, config, self.net)
        #: set by :meth:`harden`: the units are recovering ones
        self.hardened = False
        #: set by an armed fault injector: ``fn() -> bool``, true once
        #: its plan has nothing left to do (see :meth:`lock_machinery_idle`)
        self.fault_plan_spent: "Callable[[], bool] | None" = None
        # heartbeat interval and the cycle the ticks count from: a
        # hardened drain checks for idle on the cycle before each wave
        self._beat_interval = 5_000
        self._beat_phase = 0

    # ------------------------------------------------------------------ #

    def _chip_of(self, ep: Endpoint) -> int:
        kind, idx = ep
        if kind == "core":
            return self.config.chip_of_core(idx)
        # memory-controller-side units: spread controllers over chips
        return idx * self.config.chips // self.config.num_lrts

    def _core_handler(self, core: int):
        def handler(src: Endpoint, payload: object) -> None:
            cls = payload.__class__
            if cls in _LCU_MESSAGE_TYPES:
                self.lcus[core].on_message(src, payload)
            elif cls is tuple and payload and payload[0] in (
                "fill", "ssb-reply",
            ):
                pass  # handled by the send's on_deliver callback
            else:
                raise ProtocolError(
                    f"core {core}: unexpected payload {payload!r}"
                )

        return handler

    def drain(self, max_cycles: int = 200_000) -> None:
        """Let in-flight protocol traffic settle (bounded, so stale OS
        slice timers parked far in the future do not advance the clock).

        A hardened machine never runs out of events: its LRT watchdog
        and heartbeat ticks re-arm forever, so its drain would always
        run to the cap.  It stops early instead, at the first check at
        which :meth:`lock_machinery_idle` holds.  The checks fall once
        per heartbeat interval, on the cycle before a heartbeat wave
        starts, so the previous wave has left the wire.  From an idle
        check on, the rest of the drain would run only heartbeats and
        watchdog ticks that find no lock to act on, so stopping there
        leaves every verdict, lock and LCU/LRT counter as the full drain
        would; only the clock and the event, message and datagram
        totals differ.  A machine that never reaches idle runs to the
        cap."""
        sim = self.sim
        end = sim.now + max_cycles
        if not self.hardened:
            sim.run(until=end)
            return
        stride = self._beat_interval
        check = sim.now + (self._beat_phase - sim.now) % stride
        while check < end:
            sim.run(until=check)
            if self.lock_machinery_idle():
                return
            check += stride
        sim.run(until=end)

    def lock_machinery_idle(self) -> bool:
        """Nothing is left for the lock machinery to do:

        * **lock state is gone** — no LCU entry, and no live LRT lock
          (so no reset in progress, which keeps its entry until every
          LCU acks).  A lock parked in a Free Lock Table is the one
          exception, as in the strict quiescence audit
          (:func:`repro.check.invariants.audit_lcu_queues`);
        * **nothing is left on the wire** — no message in the fabric or
          held back by a fault-injected delay, and no reliable-layer
          frame waiting for its ack;
        * **the fault plan is spent** — :attr:`fault_plan_spent`, if an
          injector set it, holds.

        Cheap enough for the drain's checks; never read on a send."""
        for lcu in self.lcus:
            if lcu._entries:
                return False
        if any(lrt._live for lrt in self.lrts):
            parked = set()
            for lcu in self.lcus:
                parked.update(lcu._flt)
            for lrt in self.lrts:
                for entries in (*lrt._sets.values(), lrt._overflow):
                    if not parked.issuperset(entries):
                        return False
        net = self.net
        if net.in_flight():
            return False
        if net.reliable is not None and net.reliable.pending_frames():
            return False
        return self.fault_plan_spent is None or self.fault_plan_spent()

    def harden(
        self, watchdog_interval: int = 20_000,
        silence_threshold: int = 50_000,
        fencing: bool = True,
    ) -> None:
        """Arm fault tolerance: every LCU and LRT becomes a recovering
        unit (:mod:`repro.lcu.recovery`), in place.  The LRT watchdog
        probes queues silent for ``silence_threshold`` cycles, checking
        every ``watchdog_interval``.  A second call is a no-op.

        ``fencing=False`` is the sabotage mode: silent queues are still
        reclaimed, but stale releases are not fenced, so a zombie
        holder's stale operations succeed silently — the invariant
        monitor's zombie-writer check must catch it."""
        if self.hardened:
            return
        self.hardened = True
        from repro.lcu import recovery

        recovery.install(
            self.lcus, self.lrts, watchdog_interval, silence_threshold,
            fencing,
        )

    def start_heartbeats(self, interval: int = 5_000) -> None:
        """Begin per-core heartbeats to every LRT (the suspicion-level
        failure detector's input).  Fault-harness-only: call it after
        :meth:`harden`; unfaulted builds never schedule any of this.
        Heartbeats ride the armed reliable layer as best-effort
        datagrams — faulted like any frame, never retransmitted — so a
        partitioned or zombied core goes silent and its suspicion
        climbs, while a merely slow core keeps beating and is probed
        patiently instead of reclaimed."""
        if getattr(self, "_heartbeats_on", False):
            return
        self._heartbeats_on = True
        self._beat_interval = interval
        self._beat_phase = self.sim.now
        for lrt in self.lrts:
            lrt.enable_failure_detector(interval)
        lrts = tuple(("lrt", j) for j in range(self.config.num_lrts))
        for core in range(self.config.cores):
            self.sim.at(self.sim.now + 1 + core,
                        self._heartbeat(core, interval, lrts))

    def _heartbeat(self, core: int, interval: int, lrts: tuple):
        """Core ``core``'s heartbeat tick.  A beat carries only the core
        number, so one ``Heartbeat`` serves every tick and every LRT."""
        src = ("core", core)
        beat = lcu_msgs.Heartbeat(core=core)
        lcu = self.lcus[core]
        net = self.net
        sim = self.sim

        def tick() -> None:
            # a dead core stops beating; restart_core revives the same
            # LCU, so the next tick beats again
            if not lcu.dead:
                for dst in lrts:
                    net.send(src, dst, beat)
            sim.after(interval, tick)

        return tick

    # ------------------------------------------------------------------ #
    # crash-stop faults (repro.faults crash_core / restart_core)

    def crash_core(self, core: int) -> set:
        """Hardware side of a crash-stop fault (after :meth:`harden`):
        the core's LCU dies with all its lock state, and every LRT is
        told the core is dead (so queue reclamation never waits on it).
        Returns the tids whose lock state was homed on the dead LCU —
        the caller must also kill those threads (see
        :meth:`repro.cpu.os_sched.OS.crash_core`), because their only
        record of holding/queueing died here."""
        homed = self.lcus[core].crash()
        for lrt in self.lrts:
            lrt.note_dead_core(core)
        return homed

    def restart_core(self, core: int) -> None:
        """Rebirth after :meth:`crash_core`: the LCU comes back empty and
        the LRTs resume including the core in reset broadcasts.  Lock
        state lost in the crash stays lost — recovery is the LRT
        watchdog's job, not the restart's."""
        self.lcus[core].restart()
        for lrt in self.lrts:
            lrt.note_live_core(core)

    def purge_dead_tids(self, tids) -> None:
        """Release lock state held *at live LCUs* by threads that died in
        a crash (a migrated thread's entries live on the core it acquired
        from, not the core it died on).  Models the surviving OS kernels'
        robust-futex-style crash cleanup: each live LCU releases the dead
        threads' held locks on their behalf so waiters behind them make
        progress without waiting out a full queue revocation.  Without
        :meth:`harden` no core can have crashed: nothing to purge."""
        dead = set(tids)
        if not dead or not self.hardened:
            return
        for lcu in self.lcus:
            lcu.purge_dead_tids(dead)

    # ------------------------------------------------------------------ #
    # invariant checking (used heavily by the test suite)

    def check_lock_invariants(self) -> None:
        """Assert cross-unit protocol invariants at the current instant."""
        for lrt in self.lrts:
            for s in lrt._sets.values():
                for e in s.values():
                    assert e.reader_cnt >= 0, f"negative reader_cnt: {e!r}"
                    assert e.writers_waiting >= 0, f"negative ww: {e!r}"
                    assert (e.head is None) == (e.tail is None), (
                        f"half-empty queue pointers: {e!r}"
                    )

    def total_lcu_entries_in_use(self) -> int:
        return sum(lcu.entries_in_use for lcu in self.lcus)
