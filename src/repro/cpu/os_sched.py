"""OS scheduling model: cores, timeslice preemption, migration, futexes.

Thread programs are generators yielding :mod:`repro.cpu.ops` records.  The
scheduler multiplexes them over the machine's cores:

* With as many cores as runnable threads, every thread keeps its core and
  nothing is ever preempted (the paper's <=32-thread configurations).
* With more threads than cores, a round-robin timeslice preempts running
  (or *spinning*) threads, and a rescheduled thread may land on any idle
  core — this yields both the preemption anomaly of queue-based software
  locks (Figure 10, >32 threads) and the thread-migration scenarios the
  LCU's grant timer is designed for (paper Section III-C).

Spin-style waits (``WaitLine``, ``LcuWait``) hold the core while waiting,
like real spinning does; ``SleepFor``/``FutexWait`` release it, like a
Posix mutex's slow path.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from repro.cpu import ops
from repro.mem.memory import READ, RMW, WRITE

RUNNING = "running"
READY = "ready"
WAITING = "waiting"    # futex / sleep — core released
DONE = "done"
CRASHED = "crashed"    # killed by a crash_core fault — never resumes


class DeadlockError(RuntimeError):
    """The event queue drained while threads were still incomplete.

    The message lists every incomplete thread with its wait state and
    the last lock-related operation it issued, so a hang under injected
    stalls/faults points at the wedged protocol step directly."""


class _Guard:
    """Completion callback valid only for the current op issuance.

    A slotted reusable stand-in for the closure pair the executor used
    to allocate per op (a ``done`` closure plus a result-binding lambda
    for every scheduled completion).  Creating the guard *issues* the op:
    it bumps ``op_seq``, so any completion still in flight for the
    previous issuance goes stale.  Invoked two ways, both matching the
    old closure semantics exactly:

    * by the engine with no argument (scheduled completions) — delivers
      the preset ``result`` (the executor stores the op's outcome on the
      guard before scheduling it);
    * by a subsystem passing an explicit result (memory fills, SSB
      replies, signal fires — the latter always fire ``None`` here).

    On the common path (the thread is not frozen and no preemption is
    due) the guard itself resumes the program and issues its next op:
    the work of :meth:`OS._op_done`, :meth:`OS._advance` and
    :meth:`OS._execute` in one frame.  The stall and preempt paths go
    through :meth:`OS._op_done`.
    """

    __slots__ = ("os", "t", "seq", "epoch", "result")

    def __init__(self, os: "OS", t: "SimThread") -> None:
        t.op_seq = seq = t.op_seq + 1
        self.os = os
        self.t = t
        self.seq = seq
        self.epoch = t.epoch
        self.result: Any = None

    def __call__(self, result: Any = None) -> None:
        t = self.t
        if t.op_seq != self.seq or t.epoch != self.epoch \
                or t.state != RUNNING:
            return
        if result is None:
            result = self.result
        os = self.os
        now = os.sim.now
        if t.freeze_until > now or (
            os.ready and (t.preempt_pending or now >= t.slice_end)
        ):
            os._op_done(t, result)
            return
        t.cancel_wait = None
        try:
            op = t.gen.send(result)
        except StopIteration:
            os._finish(t)
            return
        t.current_op = op
        ex = _EXECUTORS.get(op.__class__)
        if ex is None:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op!r}")
        if op.lock_op:
            t.last_lock_op = (op, now)
        ex(os, t, op, _Guard(os, t))


class SimThread:
    """A software thread: identity, program generator and bookkeeping."""

    def __init__(self, tid: int, name: str) -> None:
        self.tid = tid
        self.name = name
        self.gen: Optional[Generator] = None
        self.state = READY
        self.core: Optional[int] = None
        self.last_core: Optional[int] = None
        self.resume_value: Any = None
        self.cancel_wait: Optional[Callable[[], None]] = None
        self.preempt_pending = False
        self.slice_end = 0
        self.epoch = 0          # bumped per dispatch (guards slice timers)
        self.op_seq = 0         # bumped per op issued (guards completions)
        self.current_op: Optional[Any] = None
        self.last_lock_op: Optional[tuple] = None  # (op, issue cycle)
        self.preemptions = 0
        self.migrations = 0
        # fault injection: core-stall freeze (see OS.stall_core)
        self.freeze_until = 0
        self.frozen = False
        self.stats: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimThread({self.name}, tid={self.tid}, state={self.state}, "
            f"core={self.core}, op={self.current_op})"
        )


class OS:
    """Scheduler tying thread programs to a machine's hardware."""

    def __init__(
        self,
        machine,
        quantum: Optional[int] = None,
        prefer_affinity: bool = True,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.quantum = quantum if quantum is not None else machine.config.timeslice
        self.prefer_affinity = prefer_affinity

        self.threads: List[SimThread] = []
        self.ready: Deque[SimThread] = deque()
        self.idle_cores: List[int] = list(range(machine.config.cores))
        self.active = 0
        self._futex: Dict[int, Deque[SimThread]] = {}
        self._next_tid = 1
        self._stop_on_idle = False
        # fault injection (repro.faults): cores stalled until a cycle
        self._stalled_until: Dict[int, int] = {}
        # gray degradation (slow_core): core -> dispatch slowdown factor.
        # Empty in unfaulted runs, so the executor fast path never pays.
        self._core_slowdown: Dict[int, float] = {}
        self.forced_preemptions = 0
        self.forced_stalls = 0
        # crash-stop faults: dead cores + per-victim notification hooks
        self.crashed_cores: set = set()
        self.crash_hooks: List[Callable[[SimThread], None]] = []
        self.crashes = 0
        self.restarts = 0

    # ------------------------------------------------------------------ #
    # public API

    def spawn(
        self,
        program_factory: Callable[[SimThread], Generator],
        name: Optional[str] = None,
    ) -> SimThread:
        """Create a thread running ``program_factory(thread)``."""
        tid = self._next_tid
        self._next_tid += 1
        t = SimThread(tid, name or f"t{tid}")
        t.gen = program_factory(t)
        self.threads.append(t)
        self.active += 1
        self.ready.append(t)
        # Defer the initial dispatch so spawning inside an event is safe.
        self.sim.after(0, self._dispatch)
        return t

    def run_all(self, max_cycles: Optional[int] = None) -> int:
        """Run until every spawned thread finishes.  Returns the finish
        time.  Raises :class:`DeadlockError` on a stuck simulation."""
        if self.active > 0:
            # _finish requests an engine stop when the last thread
            # completes — one flag check per event instead of a
            # stop_when callable invoked 100k+ times per run.
            self._stop_on_idle = True
            try:
                self.sim.run(until=max_cycles)
            finally:
                self._stop_on_idle = False
        if self.active > 0:
            pending = [
                t for t in self.threads if t.state not in (DONE, CRASHED)
            ]
            lines = [self._diagnose(t) for t in pending[:16]]
            more = "" if len(pending) <= 16 else f"\n  ... +{len(pending) - 16} more"
            raise DeadlockError(
                f"{len(pending)} thread(s) incomplete at cycle "
                f"{self.sim.now}:\n  " + "\n  ".join(lines) + more
            )
        return self.sim.now

    def _diagnose(self, t: SimThread) -> str:
        """One-line wait-state description of an incomplete thread."""
        bits = [f"{t.name}(tid={t.tid}) state={t.state} core={t.core}"]
        if t.cancel_wait is not None:
            bits.append("spin-waiting")
        if t.frozen or t.freeze_until > self.sim.now:
            bits.append(f"frozen_until={t.freeze_until}")
        if t.core is not None and self._core_stalled(t.core):
            bits.append(f"core_stalled_until={self._stalled_until[t.core]}")
        bits.append(f"op={t.current_op!r}")
        if t.last_lock_op is not None:
            op, cycle = t.last_lock_op
            bits.append(f"last_lock_op={op!r}@{cycle}")
        return " ".join(bits)

    # ------------------------------------------------------------------ #
    # dispatching

    def _core_stalled(self, core: int) -> bool:
        return self._stalled_until.get(core, 0) > self.sim.now

    def _dispatch(self) -> None:
        while self.ready:
            avail = [c for c in self.idle_cores if not self._core_stalled(c)]
            if not avail:
                return
            t = self.ready.popleft()
            core = self._pick_core(t, avail)
            self._assign(t, core)

    def _pick_core(self, t: SimThread, avail: List[int]) -> int:
        if self.prefer_affinity and t.last_core in avail:
            core = t.last_core
        else:
            core = avail[0]
        self.idle_cores.remove(core)
        return core

    def _assign(self, t: SimThread, core: int) -> None:
        if t.last_core is not None and t.last_core != core:
            t.migrations += 1
        t.core = core
        t.last_core = core
        t.state = RUNNING
        t.preempt_pending = False
        t.epoch += 1
        t.slice_end = self.sim.now + self.quantum
        epoch = t.epoch
        self.sim.at(t.slice_end, lambda: self._slice_timer(t, epoch))
        value, t.resume_value = t.resume_value, None
        self._advance(t, value)

    def _release_core(self, t: SimThread) -> None:
        if t.core is not None:
            if t.core not in self.crashed_cores:
                self.idle_cores.append(t.core)
            t.core = None

    def _slice_timer(self, t: SimThread, epoch: int) -> None:
        if t.epoch != epoch or t.state != RUNNING:
            return
        if not self.ready:
            # Nobody waiting: extend the slice.
            t.slice_end = self.sim.now + self.quantum
            self.sim.at(t.slice_end, lambda: self._slice_timer(t, epoch))
            return
        if t.cancel_wait is not None:
            # Preempt a spinning thread immediately.
            cancel, t.cancel_wait = t.cancel_wait, None
            cancel()
            t.op_seq += 1  # kill any in-flight completion for the wait
            self._preempt(t, False)
        else:
            t.preempt_pending = True

    def _preempt(self, t: SimThread, resume_value: Any) -> None:
        t.preemptions += 1
        t.state = READY
        t.resume_value = resume_value
        self._release_core(t)
        self.ready.append(t)
        self._dispatch()

    def _finish(self, t: SimThread) -> None:
        t.state = DONE
        t.epoch += 1
        self._release_core(t)
        self.active -= 1
        self._dispatch()
        if self.active == 0 and self._stop_on_idle:
            self.sim.request_stop()

    # ------------------------------------------------------------------ #
    # fault-injection hooks (repro.faults)

    def force_preempt_all(self, migrate: bool = False) -> None:
        """Nemesis preemption burst: preempt every running thread now.

        Unlike the slice timer this fires even when no other thread is
        waiting, forcing each thread through the involuntary-descheduling
        paths (spin-wait cancellation, LCU grant timers).  With
        ``migrate`` each thread's affinity is pointed at the next core,
        so redispatch lands it elsewhere and exercises the
        migrated-thread release protocol (paper III-C)."""
        cores = self.machine.config.cores
        for t in [x for x in self.threads if x.state == RUNNING]:
            if t.frozen:
                continue  # stalled mid-op; preempting now would lose it
            self.forced_preemptions += 1
            if migrate and t.core is not None:
                t.last_core = (t.core + 1) % cores
            if t.cancel_wait is not None:
                cancel, t.cancel_wait = t.cancel_wait, None
                cancel()
                t.op_seq += 1  # kill any in-flight completion for the wait
                self._preempt(t, False)
            else:
                t.preempt_pending = True
        self._dispatch()

    def stall_core(self, core: int, window: int) -> None:
        """Nemesis core stall: core ``core`` executes nothing for
        ``window`` cycles (SMI / hypervisor-style blackout).  A thread
        running there freezes at its next completion point — in-flight
        memory/LCU results are preserved and handed over when the stall
        lifts — and the dispatcher routes ready threads elsewhere."""
        end = self.sim.now + window
        if end <= self._stalled_until.get(core, 0):
            return
        self.forced_stalls += 1
        self._stalled_until[core] = end
        for t in self.threads:
            if t.core == core and t.state == RUNNING:
                t.freeze_until = max(t.freeze_until, end)
                if t.cancel_wait is not None:
                    # Pure wait in progress (no result to lose): freeze
                    # immediately and re-poll when the stall lifts.
                    cancel, t.cancel_wait = t.cancel_wait, None
                    cancel()
                    t.op_seq += 1
                    t.frozen = True
                    self.sim.at(
                        end,
                        lambda t=t, e=t.epoch: self._unfreeze(t, None, e),
                    )
        # Ready threads may be queued behind this core: re-dispatch once
        # the window closes.
        self.sim.at(end, self._dispatch)

    def set_core_slowdown(self, core: int, factor: float) -> None:
        """Gray degradation (slow_core nemesis): stretch every compute
        phase dispatched on ``core`` by ``factor``.  Unlike
        :meth:`stall_core` the core keeps executing — slowly — so its
        LCU answers probes and its heartbeats keep flowing: the failure
        detector must *not* reclaim its holders.  ``factor <= 1``
        restores full speed."""
        if factor <= 1.0:
            self._core_slowdown.pop(core, None)
        else:
            self._core_slowdown[core] = factor

    def crash_core(self, core: int, extra_tids=()) -> List[int]:
        """Crash-stop fault: core ``core`` dies now and stays dead until
        :meth:`restart_core`.  The thread running there is killed, as is
        every thread in ``extra_tids`` regardless of where it runs —
        callers pass the tids whose lock state was homed on the dead
        core's LCU, so software state and hardware state die together.
        Killed threads never resume (their generators are abandoned);
        each one is reported to every registered ``crash_hooks`` callback
        so invariant monitors can excuse its held locks.  Returns the
        tids actually killed."""
        if core in self.crashed_cores:
            return []
        self.crashes += 1
        self.crashed_cores.add(core)
        try:
            self.idle_cores.remove(core)
        except ValueError:
            pass
        extra = set(extra_tids)
        victims = [
            t for t in self.threads
            if t.state not in (DONE, CRASHED)
            and (t.core == core or t.tid in extra)
        ]
        killed: List[int] = []
        for t in victims:
            if t.cancel_wait is not None:
                cancel, t.cancel_wait = t.cancel_wait, None
                cancel()
            t.op_seq += 1   # stale any in-flight completion
            t.epoch += 1    # stale slice timers / unfreeze events
            if t.state == READY:
                try:
                    self.ready.remove(t)
                except ValueError:
                    pass
            # WAITING victims stay parked in their futex deque; wakes
            # skip non-WAITING sleepers, so the stale entry is inert.
            self._release_core(t)
            t.state = CRASHED
            t.frozen = False
            self.active -= 1
            killed.append(t.tid)
            for hook in self.crash_hooks:
                hook(t)
        self._dispatch()
        if self.active == 0 and self._stop_on_idle:
            self.sim.request_stop()
        return killed

    def restart_core(self, core: int) -> bool:
        """Rebirth after :meth:`crash_core`: the core returns to service
        and may run surviving threads.  Crash-stop semantics — threads
        killed by the crash stay dead."""
        if core not in self.crashed_cores:
            return False
        self.restarts += 1
        self.crashed_cores.discard(core)
        self.idle_cores.append(core)
        self._dispatch()
        return True

    # ------------------------------------------------------------------ #
    # program driving

    def _advance(self, t: SimThread, value: Any) -> None:
        assert t.state == RUNNING and t.gen is not None
        try:
            op = t.gen.send(value)
        except StopIteration:
            self._finish(t)
            return
        t.current_op = op
        self._execute(t, op)

    def _op_done(self, t: SimThread, result: Any) -> None:
        t.cancel_wait = None
        if t.state != RUNNING:
            return
        if t.freeze_until > self.sim.now:
            # Core stall (fault injection): the op's result is preserved
            # and the program resumes from this exact point when the
            # stall window ends — nothing is lost, only delayed.
            t.frozen = True
            epoch = t.epoch
            self.sim.at(
                t.freeze_until, lambda: self._unfreeze(t, result, epoch)
            )
            return
        if self.ready and (t.preempt_pending or self.sim.now >= t.slice_end):
            self._preempt(t, result)
        else:
            self._advance(t, result)

    def _unfreeze(self, t: SimThread, result: Any, epoch: int) -> None:
        if t.epoch != epoch or t.state != RUNNING or not t.frozen:
            return
        t.frozen = False
        if t.freeze_until > self.sim.now:  # stall was extended meanwhile
            self.sim.at(
                t.freeze_until, lambda: self._unfreeze(t, result, epoch)
            )
            t.frozen = True
            return
        if self.ready and (t.preempt_pending or self.sim.now >= t.slice_end):
            self._preempt(t, result)
        else:
            self._advance(t, result)

    # ------------------------------------------------------------------ #
    # op execution
    #
    # Dispatch is one dict lookup on the op's class (see _EXECUTORS at
    # module bottom) instead of an isinstance chain — the chain walked
    # ~10 classes per issued op and dominated scheduler host time.
    # Every executor receives the freshly issued _Guard, whose creation
    # bumped op_seq (the old ``done = self._guarded(t)`` prologue), so
    # stale-completion semantics are unchanged for every op — including
    # the ones that never invoke their guard (SleepFor, FutexWait sleep).
    # The compute and LCU executors, the LCU microbenchmark's hot path,
    # schedule with ``at(now + d)``: one call fewer than ``after(d)``.

    def _execute(self, t: SimThread, op: Any) -> None:
        ex = _EXECUTORS.get(op.__class__)
        if ex is None:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op!r}")
        assert t.core is not None
        if op.lock_op:
            t.last_lock_op = (op, self.sim.now)
        ex(self, t, op, _Guard(self, t))

    def _ex_compute(self, t, op, done) -> None:
        c = op.cycles
        if self._core_slowdown:
            f = self._core_slowdown.get(t.core)
            if f is not None:
                c = int(c * f)
        sim = self.sim
        sim.at(sim.now + (c if c > 1 else 1), done)

    def _ex_load(self, t, op, done) -> None:
        self.machine.mem.access(t.core, op.addr, READ, done)

    def _ex_store(self, t, op, done) -> None:
        self.machine.mem.access(t.core, op.addr, WRITE, done, value=op.value)

    def _ex_rmw(self, t, op, done) -> None:
        self.machine.mem.access(t.core, op.addr, RMW, done, rmw=op.fn)

    def _ex_remote_rmw(self, t, op, done) -> None:
        self.machine.mem.remote_rmw(t.core, op.addr, op.fn, done)

    def _ex_wait_line(self, t, op, done) -> None:
        # None: the value is stale or the line is not cached, so a spin
        # would never be woken; re-check next cycle instead
        sig = self.machine.mem.cached_line_signal(t.core, op.addr,
                                                  op.expected)
        if sig is None:
            sim = self.sim
            sim.at(sim.now + 1, done)
            return
        token = sig.wait(done)   # fires with payload None == done(None)
        t.cancel_wait = partial(sig.cancel, token)
        if op.timeout is not None:
            seq = t.op_seq

            def waitline_timeout() -> None:
                if t.op_seq == seq and t.state == RUNNING:
                    if t.cancel_wait is not None:
                        t.cancel_wait()
                        t.cancel_wait = None
                    self._op_done(t, None)

            self.sim.after(op.timeout, waitline_timeout)

    def _ex_yield(self, t, op, done) -> None:
        if self.ready:
            t.op_seq += 1
            self._preempt(t, None)
        else:
            self.sim.after(1, done)

    def _ex_sleep(self, t, op, done) -> None:
        t.state = WAITING
        self._release_core(t)
        self._dispatch()

        def wake() -> None:
            if t.state == WAITING:
                t.state = READY
                t.resume_value = None
                self.ready.append(t)
                self._dispatch()

        self.sim.after(max(1, op.cycles), wake)

    def _ex_futex_wait(self, t, op, done) -> None:
        m = self.machine
        if m.mem.peek(op.addr) != op.expected:
            done.result = False
            self.sim.after(m.config.l1_latency, done)
        else:
            t.state = WAITING
            t.resume_value = True
            self._release_core(t)
            self._futex.setdefault(op.addr, deque()).append(t)
            self._dispatch()

    def _ex_futex_wake(self, t, op, done) -> None:
        q = self._futex.get(op.addr)
        woken = 0
        while q and woken < op.count:
            sleeper = q.popleft()
            if sleeper.state == WAITING:
                sleeper.state = READY
                self.ready.append(sleeper)
                woken += 1
        done.result = woken
        self.sim.after(1, done)
        self.sim.after(0, self._dispatch)

    def _ex_lcu_acq(self, t, op, done) -> None:
        m = self.machine
        done.result = m.lcus[t.core].instr_acquire(
            t.tid, op.addr, op.write, priority=op.priority
        )
        sim = self.sim
        sim.at(sim.now + m.config.lcu_latency, done)

    def _ex_lcu_rel(self, t, op, done) -> None:
        m = self.machine
        done.result = m.lcus[t.core].instr_release(t.tid, op.addr, op.write)
        sim = self.sim
        sim.at(sim.now + m.config.lcu_latency, done)

    def _ex_lcu_enq(self, t, op, done) -> None:
        m = self.machine
        done.result = m.lcus[t.core].instr_enqueue(t.tid, op.addr, op.write)
        sim = self.sim
        sim.at(sim.now + m.config.lcu_latency, done)

    def _ex_lcu_wait(self, t, op, done) -> None:
        lcu = self.machine.lcus[t.core]
        sim = self.sim
        if lcu.poll_ready(t.tid, op.addr):
            # Grant already here / entry gone: re-check immediately.
            sim.at(sim.now + 1, done)
            return
        sig = lcu.entry_signal(t.tid, op.addr)
        token = sig.wait(done)   # fires with payload None == done(None)
        t.cancel_wait = lambda: sig.cancel(token)
        if op.timeout is not None:
            seq = t.op_seq

            def timeout_fire() -> None:
                if t.op_seq == seq and t.state == RUNNING:
                    if t.cancel_wait is not None:
                        t.cancel_wait()
                        t.cancel_wait = None
                    self._op_done(t, None)

            sim.at(sim.now + op.timeout, timeout_fire)

    def _ex_ssb_acq(self, t, op, done) -> None:
        self.machine.ssb.acquire(t.core, t.tid, op.addr, op.write, done)

    def _ex_ssb_rel(self, t, op, done) -> None:
        self.machine.ssb.release(t.core, t.tid, op.addr, op.write, done)


#: op class -> unbound executor method; one dict hit per issued op
_EXECUTORS: Dict[type, Callable] = {
    ops.Compute: OS._ex_compute,
    ops.Load: OS._ex_load,
    ops.Store: OS._ex_store,
    ops.Rmw: OS._ex_rmw,
    ops.RemoteRmw: OS._ex_remote_rmw,
    ops.WaitLine: OS._ex_wait_line,
    ops.YieldCPU: OS._ex_yield,
    ops.SleepFor: OS._ex_sleep,
    ops.FutexWait: OS._ex_futex_wait,
    ops.FutexWake: OS._ex_futex_wake,
    ops.LcuAcq: OS._ex_lcu_acq,
    ops.LcuRel: OS._ex_lcu_rel,
    ops.LcuEnq: OS._ex_lcu_enq,
    ops.LcuWait: OS._ex_lcu_wait,
    ops.SsbAcq: OS._ex_ssb_acq,
    ops.SsbRel: OS._ex_ssb_rel,
}
