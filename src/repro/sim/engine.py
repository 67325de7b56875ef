"""Discrete-event simulation engine.

The whole reproduction runs on this small deterministic event kernel.
Time is measured in integer *cycles*.  Events scheduled for the same cycle
fire in schedule order (FIFO within a cycle) unless a tiebreak seed
perturbs that order; either way every run is bit-reproducible for a given
seed.

The building blocks are:

``Simulator``
    The clock, the event queue and the one dispatch loop
    (:meth:`Simulator.run`).

``CalendarQueue``
    The event store: FIFO bucket lists keyed by an integer *key*, plus a
    small integer min-heap of the armed keys.  In stable order the key is
    the cycle, so advancing the clock across a run of empty cycles is one
    heap pop.  In seeded order the key is the cycle and a random draw.
    See DESIGN.md "Event queue internals" for the key math.

``Signal``
    A broadcast condition: processes block on it and are resumed when it
    fires.  Used to model local spinning (a waiter consumes zero simulated
    traffic until the thing it watches changes).

``Server``
    A serially-serviced resource with FIFO queueing — memory controllers,
    switch stages and inter-chip links are Servers, which is where all
    contention in the model comes from.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional

#: a seeded key is ``cycle << 30 | draw``: one integer compare orders
#: keys by (cycle, 30-bit tiebreak draw)
_SEEDED_SHIFT = 30


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (e.g. scheduling in the past)."""


class CalendarQueue:
    """Key-bucketed event store.

    Invariants (pinned by tests/test_engine_equiv.py property tests):

    * every key in the ``times`` heap has its bucket in ``buckets`` and
      appears in the heap once.  The one bucket whose key is not in
      ``times`` is the one :meth:`Simulator.run` is dispatching: its key
      leaves the heap before its first event runs.  ``size`` is the
      number of queued events.
    * Events within one bucket fire in append (schedule) order, and a
      bucket is deleted as soon as it is drained.

    The class has no methods: :meth:`Simulator.at` and
    :meth:`Simulator.run` work on these fields directly, because a method
    call per event is the overhead this layout exists to avoid.
    """

    __slots__ = ("buckets", "times", "size")

    def __init__(self) -> None:
        self.buckets: Dict[int, List[Callable[[], None]]] = {}
        self.times: List[int] = []          # min-heap of armed keys
        self.size = 0


class Simulator:
    """Deterministic discrete-event simulator with an integer cycle clock.

    ``tiebreak_seed`` perturbs the order in which *same-cycle* events
    fire: instead of pure schedule order, each event draws a deterministic
    random 30-bit number from the seed when it is scheduled, and
    same-cycle events fire in draw order (schedule order breaks ties).
    Every seed is one reproducible interleaving — the schedule fuzzer
    (:mod:`repro.check.fuzz`) sweeps seeds to explore interleavings the
    default order never produces.  Both orders use the same store and the
    same loop: a seeded event is filed under the key ``cycle << 30 |
    draw``, so the key heap alone yields the perturbed order.

    ``dispatch`` (when set to ``fn(now, event)``) is called in place of
    every ``event()``, and must call ``event()`` itself.  It is how
    :class:`repro.obs.host.HostProfiler` times handlers and how the
    differential tests record the dispatch order.  Unset, it costs one
    None-check per event.
    """

    def __init__(self, tiebreak_seed: Optional[int] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._events_processed: int = 0
        self._tiebreak: Optional[random.Random] = (
            random.Random(tiebreak_seed) if tiebreak_seed is not None else None
        )
        self._cal = CalendarQueue()
        self._probes: List[Callable[[], None]] = []
        self.dispatch: Optional[Callable[[int, Callable[[], None]], None]] = None
        self._stop = False
        self._running = False
        # event-queue telemetry: plain integer bumps in at()/run() (a few
        # adds per event next to the bucket ops, well under timing noise;
        # the engine overhead guard in tests/test_obs_host.py keeps it so).
        # None of these feed back into the simulation — simulated time and
        # event order are bit-identical whether anyone reads them or not.
        self.queue_depth_peak: int = 0
        self._queue_depth_sum: int = 0
        self.signal_waits: int = 0
        self.signal_cancels: int = 0
        self.signal_fires: int = 0

    @property
    def stable_order(self) -> bool:
        """True when same-cycle events fire in pure schedule order (no
        tiebreak perturbation) — the mode in which per-pair network FIFO
        holds by construction (see :mod:`repro.net.network`)."""
        return self._tiebreak is None

    # ------------------------------------------------------------------ #
    # scheduling

    def at(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute ``time`` cycles."""
        if type(time) is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} (now={self.now})"
            )
        # inlined bucket push (this is the hottest allocation site in
        # the repo; a method call per event costs ~15% of the loop)
        cal = self._cal
        tiebreak = self._tiebreak
        if tiebreak is None:
            key = time
        else:
            key = (time << _SEEDED_SHIFT) | tiebreak.getrandbits(30)
        bucket = cal.buckets.get(key)
        if bucket is None:
            cal.buckets[key] = [fn]
            heapq.heappush(cal.times, key)
        else:
            bucket.append(fn)
        self._seq += 1
        cal.size = depth = cal.size + 1
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self.now + delay, fn)

    def request_stop(self) -> None:
        """Stop the current (or next) :meth:`run` call before the next
        event is dispatched.  Cheaper than a ``stop_when`` callable — the
        loop pays one attribute check per event instead of a Python call
        — and used by :meth:`repro.cpu.os_sched.OS.run_all`."""
        self._stop = True

    # ------------------------------------------------------------------ #
    # execution

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when simulated time would exceed
        ``until`` (the clock then reads ``until``), when ``max_events``
        events have been processed, when ``stop_when()`` becomes true
        (checked between events), or when :meth:`request_stop` was
        called.  Returns the number of events processed by this call.
        ``until`` before the current time is an error, as scheduling in
        the past is.  ``run`` must not be re-entered from an event handler.
        """
        if self._running:
            raise SimulationError("run() re-entered from an event handler")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until} (now={self.now})"
            )
        if max_events is not None and max_events <= 0:
            return 0

        cal = self._cal
        buckets = cal.buckets
        times = cal.times
        probes = self._probes
        dispatch = self.dispatch
        shift = 0 if self._tiebreak is None else _SEEDED_SHIFT
        pop_key = heapq.heappop
        push_key = heapq.heappush
        nmax = -1 if max_events is None else max_events
        processed = 0
        depth_sum = 0
        bucket: Optional[List] = None
        i = 0
        self._running = True
        try:
            while times:
                if self._stop or (stop_when is not None and stop_when()):
                    self._stop = False
                    break
                if processed == nmax:
                    break
                # the key leaves the heap before its bucket runs, so a
                # key armed by one of its handlers is visible below
                key = pop_key(times)
                t = key >> shift
                if until is not None and t > until:
                    push_key(times, key)
                    self.now = until
                    break
                bucket = buckets[key]
                self.now = t
                i = 0
                while True:
                    fn = bucket[i]
                    i += 1
                    cal.size = size = cal.size - 1
                    depth_sum += size
                    if dispatch is None:
                        fn()
                    else:
                        dispatch(t, fn)
                    processed += 1
                    if probes:
                        for probe in probes:
                            probe()
                    if i == len(bucket):
                        # drained (len re-read: events appended under
                        # this key during fn() grow the bucket)
                        del buckets[key]
                        bucket = None
                        break
                    if (self._stop or processed == nmax
                            or (times and times[0] < key)
                            or (stop_when is not None and stop_when())):
                        # the rest goes back under its key: the run
                        # stops, or a handler armed a smaller key (a
                        # seeded same-cycle event that drew lower),
                        # which must run first.  The outer loop decides.
                        del bucket[:i]
                        push_key(times, key)
                        bucket = None
                        break
        except BaseException:
            # keep the store consistent if a handler raised mid-bucket:
            # events [0, i) were dispatched and the rest go back under
            # their key; a bucket the raiser drained is retired outright.
            if bucket is not None:
                if i == len(bucket):
                    del buckets[key]
                else:
                    del bucket[:i]
                    push_key(times, key)
            raise
        finally:
            self._running = False
            self._queue_depth_sum += depth_sum
            self._events_processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        return self._cal.size

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------ #
    # engine telemetry (event-queue internals)

    @property
    def heap_pushes(self) -> int:
        """Events ever pushed (``at`` count; the name predates the
        calendar queue and is kept for trajectory comparability)."""
        return self._seq

    @property
    def heap_pops(self) -> int:
        """Events popped and dispatched across all :meth:`run` calls."""
        return self._events_processed

    @property
    def queue_depth_mean(self) -> float:
        """Mean queue depth observed at dispatch (post-pop)."""
        if self._events_processed == 0:
            return 0.0
        return self._queue_depth_sum / self._events_processed

    def engine_stats(self) -> Dict[str, float]:
        """Event-queue internals as a flat dict (the ``engine`` block of
        a bench-trajectory cell; also harvested into ``engine.*``
        counters by :func:`repro.obs.instrument.harvest_machine_metrics`).
        """
        return {
            "events_processed": self._events_processed,
            "heap_pushes": self._seq,
            "heap_pops": self._events_processed,
            "queue_depth_peak": self.queue_depth_peak,
            "queue_depth_mean": self.queue_depth_mean,
            "pending_events": self.pending_events,
            "signal_waits": self.signal_waits,
            "signal_cancels": self.signal_cancels,
            "signal_fires": self.signal_fires,
        }

    # ------------------------------------------------------------------ #
    # probes

    def add_probe(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run after every processed event.  Probes are
        the pull-based hook invariant monitors attach to
        (:mod:`repro.check.invariants`); with none registered the event
        loop pays a single falsy check per event."""
        self._probes.append(fn)

    def remove_probe(self, fn: Callable[[], None]) -> bool:
        """Deregister a probe; returns whether it was registered."""
        try:
            self._probes.remove(fn)
        except ValueError:
            return False
        return True


class Signal:
    """A broadcast wake-up: callbacks registered with :meth:`wait` all run
    (in registration order) when :meth:`fire` is called.

    Waiters are one-shot; a waiter that wants to keep watching re-registers.
    ``cancel`` removes a waiter that is no longer interested (e.g. a thread
    that got preempted while spinning).
    """

    __slots__ = ("_sim", "_waiters", "_next_id")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._waiters: Dict[int, Callable[[Any], None]] = {}
        self._next_id = 0

    def wait(self, fn: Callable[[Any], None]) -> int:
        """Register ``fn`` to be called with the fire payload. Returns a
        token usable with :meth:`cancel`."""
        token = self._next_id
        self._next_id += 1
        self._waiters[token] = fn
        self._sim.signal_waits += 1
        return token

    def cancel(self, token: int) -> bool:
        """Deregister a waiter; returns whether it was still registered."""
        if self._waiters.pop(token, None) is None:
            return False
        self._sim.signal_cancels += 1
        return True

    def fire(self, payload: Any = None) -> int:
        """Wake all current waiters *now* (same cycle). Returns the number
        of waiters woken.  Waiters registered during the firing are not
        woken by this call."""
        waiters = self._waiters
        self._waiters = {}
        self._sim.signal_fires += 1
        for fn in waiters.values():
            fn(payload)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class Server:
    """A resource that services requests one at a time, FIFO.

    ``request(service, fn)`` schedules ``fn`` to run once the server has
    finished all previously accepted work plus ``service`` cycles for this
    request.  Utilisation statistics are tracked for reporting (e.g. link
    saturation in the Model B interconnect).
    """

    __slots__ = ("_sim", "name", "_free_at", "busy_cycles", "requests")

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self._sim = sim
        self.name = name
        self._free_at: int = 0
        self.busy_cycles: int = 0
        self.requests: int = 0

    def request(self, service: int, fn: Callable[[], None]) -> int:
        """Enqueue work taking ``service`` (integer) cycles; ``fn`` runs
        at completion.  Returns the completion time."""
        if service < 0:
            raise SimulationError(f"negative service time {service}")
        sim = self._sim
        now = sim.now
        free = self._free_at
        done = (free if free > now else now) + service
        self._free_at = done
        self.busy_cycles += service
        self.requests += 1
        sim.at(done, fn)
        return done

    def queue_delay(self) -> int:
        """Cycles a request arriving now would wait before service begins."""
        return max(0, self._free_at - self._sim.now)

    def utilisation(self) -> float:
        """Fraction of elapsed simulated time this server was busy."""
        if self._sim.now == 0:
            return 0.0
        return min(1.0, self.busy_cycles / self._sim.now)
