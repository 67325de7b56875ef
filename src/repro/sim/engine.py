"""Discrete-event simulation engine.

The whole reproduction runs on this small deterministic event kernel.
Time is measured in integer *cycles*.  Events scheduled for the same cycle
fire in schedule order (FIFO within a cycle) unless a tiebreak seed
perturbs that order; either way every run is bit-reproducible for a given
seed.

The building blocks are:

``Simulator``
    The clock, the event store and the one dispatch loop
    (:meth:`Simulator.run`).  Every pending event owns one unique integer
    *key* that encodes its whole firing order — the cycle, the tiebreak
    draw in seeded order, and the schedule sequence number — so the
    store is one ``heapq`` of ints beside a key -> callback dict.  See
    DESIGN.md "Event queue internals" for the key layout.

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

from repro.sim.bus import ProbeBus

#: the low 40 bits of a key are the event's schedule sequence number:
#: ~10^12 events, about 10^5 full nemesis passes, before a seq would
#: spill into the order bits above it (not checked at run time)
_SEQ_BITS = 40
#: a seeded key's order bits are ``cycle << 30 | draw``, the 30-bit
#: tiebreak draw taken when the event is scheduled
_DRAW_BITS = 30

_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator with an integer cycle clock.

    ``tiebreak_seed`` perturbs the order in which *same-cycle* events
    fire: instead of pure schedule order, each event draws a deterministic
    random 30-bit number from the seed when it is scheduled, and
    same-cycle events fire in draw order (schedule order breaks ties).
    Every seed is one reproducible interleaving — the schedule fuzzer
    (:mod:`repro.check.fuzz`) sweeps seeds to explore interleavings the
    default order never produces.  Both orders use the same store and the
    same loop: an event's key is ``cycle << 40 | seq`` in stable order
    and ``(cycle << 30 | draw) << 40 | seq`` in seeded order, so one
    integer compare yields the ``(cycle, draw, seq)`` order.

    ``dispatch`` (when set to ``fn(now, event)``) is called in place of
    every ``event()``, and must call ``event()`` itself.  The
    differential tests record the dispatch order through it.  Unset, it
    costs one None-check per event.
    """

    def __init__(self, tiebreak_seed: Optional[int] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._events_processed: int = 0
        self._tiebreak: Optional[random.Random] = (
            random.Random(tiebreak_seed) if tiebreak_seed is not None else None
        )
        # the event store: every pending event owns one key, held once
        # in the ``_keys`` min-heap and once in ``_events`` (key -> fn)
        self._keys: List[int] = []
        self._events: Dict[int, Callable[[], None]] = {}
        self._probes: List[Callable[[], None]] = []
        #: observer subscriptions of the hardware models (see
        #: :mod:`repro.sim.bus`)
        self.bus = ProbeBus()
        self.dispatch: Optional[Callable[[int, Callable[[], None]], None]] = None
        self._stop = False
        self._running = False
        # event-queue telemetry: plain integer bumps in at()/run() (a few
        # adds per event next to the heap ops, well under timing noise;
        # tests/test_engine.py::TestOverheadGuard keeps it so).
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
        seq = self._seq
        tiebreak = self._tiebreak
        if tiebreak is None:
            key = time << _SEQ_BITS | seq
        else:
            key = ((time << _DRAW_BITS | tiebreak.getrandbits(_DRAW_BITS))
                   << _SEQ_BITS | seq)
        events = self._events
        events[key] = fn
        _heappush(self._keys, key)
        self._seq = seq + 1
        depth = len(events)
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

        An event leaves the store before its handler runs, so a handler
        that raises is consumed and every other event stays runnable.
        """
        if self._running:
            raise SimulationError("run() re-entered from an event handler")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until} (now={self.now})"
            )
        if max_events is not None and max_events <= 0:
            return 0

        keys = self._keys
        events = self._events
        pop_event = events.pop
        probes = self._probes
        dispatch = self.dispatch
        shift = _SEQ_BITS if self._tiebreak is None else _SEQ_BITS + _DRAW_BITS
        pop_key = heapq.heappop
        nmax = -1 if max_events is None else max_events
        processed = 0
        depth_sum = 0
        self._running = True
        try:
            while keys:
                if self._stop or (stop_when is not None and stop_when()):
                    self._stop = False
                    break
                if processed == nmax:
                    break
                key = pop_key(keys)
                t = key >> shift
                if until is not None and t > until:
                    _heappush(keys, key)
                    self.now = until
                    break
                fn = pop_event(key)
                self.now = t
                depth_sum += len(events)
                if dispatch is None:
                    fn()
                else:
                    dispatch(t, fn)
                processed += 1
                if probes:
                    for probe in probes:
                        probe()
        finally:
            self._running = False
            self._queue_depth_sum += depth_sum
            self._events_processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        return len(self._events)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------ #
    # engine telemetry (event-queue internals)

    @property
    def heap_pushes(self) -> int:
        """Events ever scheduled (``at`` count).  Each pushes one key on
        the heap; the name is kept so the ``engine.heap_pushes`` counter
        of committed run reports stays comparable."""
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
        the seeded golden cells; the same quantities become ``engine.*``
        counters and gauges in
        :func:`repro.obs.instrument.harvest_machine_metrics`)."""
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
