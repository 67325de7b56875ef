"""Behavioral directory-based coherence model.

This is the substrate the *software* locks run on.  It is deliberately
behavioral rather than cycle-accurate: what matters for reproducing the
paper is the *pattern* of coherence traffic each lock generates —

* a TAS lock performs an atomic RMW per attempt, so the lock line bounces
  between cores and every attempt queues at the home directory;
* a TATAS lock spins on a locally cached copy (zero traffic) until the
  holder's release invalidates it;
* an MCS lock spins on a thread-private line and transfers the lock with
  one invalidation + one miss — cheap but still two network crossings,
  which is exactly the gap the LCU's direct LCU-to-LCU grant closes.

State tracked per line: an optional exclusive owner and a sharer set
(a MESI-like M/S split; E and O are not distinguished — they do not change
message counts at this abstraction level).  Data values live in a backing
store updated at the serialization point of each access, so software lock
algorithms built on top are functionally correct, not just timed.

Capacity misses are not modelled (lock lines and queue nodes are hot); the
first touch of a line charges the memory latency, later directory hits
charge the L2 latency.  Coherence requests travel on the same simulated
network as lock-unit messages, so both protocols compete for the same
links — required for a fair Figure 9b comparison.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.network import Endpoint, Network
from repro.params import MachineConfig
from repro.sim.engine import Server, Signal, Simulator

READ = "R"
WRITE = "W"
RMW = "RMW"


class Allocator:
    """Bump allocator handing out line-aligned blocks of simulated memory.

    Giving every lock / queue node its own cache line avoids false sharing,
    matching how the paper's software baselines are implemented.
    """

    WORD = 8

    def __init__(self, line_size: int = 64, base: int = 0x1000) -> None:
        self._line_size = line_size
        self._next = base

    def alloc_line(self) -> int:
        """Allocate one cache line; returns its base (word-aligned) address."""
        addr = self._next
        self._next += self._line_size
        return addr

    def alloc_words(self, n: int) -> int:
        """Allocate ``n`` contiguous words, line-aligned, padded to lines."""
        addr = self._next
        nbytes = n * self.WORD
        lines = (nbytes + self._line_size - 1) // self._line_size
        self._next += lines * self._line_size
        return addr


class _LineState:
    """Directory state of one line.  A line gets its state on its first
    access, which charges the memory latency; later accesses, finding
    it here, charge the L2 latency."""

    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        self.owner: Optional[int] = None       # core id holding M
        self.sharers: Set[int] = set()          # core ids holding S


class MemorySystem:
    """Directory coherence + data store, addressed by integer byte address.

    The access path is the software locks' hot path, so it works on
    values resolved once per machine: each core's and each directory
    slice's endpoint, the config latencies, and (built on first use) one
    row per home of the uncongested latency to every core.
    """

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        network: Network,
        core_endpoint: Callable[[int], Endpoint],
        dir_endpoint: Callable[[int], Endpoint],
    ) -> None:
        self._sim = sim
        self._net = network
        self._line_size = config.line_size
        self._homes = config.num_lrts
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._mem_latency = config.local_mem_latency
        self._core_eps = [core_endpoint(i) for i in range(config.cores)]
        self._dir_eps = [dir_endpoint(j) for j in range(config.num_lrts)]
        # home -> [uncongested latency to core i], built on first use
        self._latency_rows: List[Optional[List[int]]] = (
            [None] * config.num_lrts
        )

        self._store: Dict[int, int] = {}
        self._lines: Dict[int, _LineState] = {}
        # per core: line -> "M"/"S"
        self._l1: List[Dict[int, str]] = [{} for _ in range(config.cores)]
        # (core, line) -> Signal fired when that copy is invalidated
        self._line_signals: Dict[Tuple[int, int], Signal] = {}
        # directory occupancy per memory controller
        self._dir_servers = [
            Server(sim, f"dir{j}") for j in range(config.num_lrts)
        ]
        for ep in self._dir_eps:
            network.register(ep, self._on_message)

        self.l1_hits = 0
        self.l1_misses = 0
        self.invalidations = 0
        self.owner_forwards = 0

    @property
    def dir_servers(self):
        """Directory-slice servers, for the telemetry layer."""
        return list(self._dir_servers)

    # ------------------------------------------------------------------ #
    # address helpers

    def home_of(self, addr: int) -> int:
        return addr // self._line_size % self._homes

    def _latency_row(self, home: int) -> List[int]:
        """The uncongested latency from ``home``'s directory slice to
        every core, as :meth:`Network.latency_estimate` gives it."""
        estimate = self._net.latency_estimate
        home_ep = self._dir_eps[home]
        row = self._latency_rows[home] = [
            estimate(home_ep, ep) for ep in self._core_eps
        ]
        return row

    # ------------------------------------------------------------------ #
    # raw data access (no timing) — used by assertions/tests only

    def peek(self, addr: int) -> int:
        return self._store.get(addr, 0)

    def poke(self, addr: int, value: int) -> None:
        self._store[addr] = value

    def has_line(self, core: int, addr: int) -> bool:
        """Whether ``core`` currently caches ``addr``'s line (M or S)."""
        return addr // self._line_size in self._l1[core]

    # ------------------------------------------------------------------ #
    # spinning support

    def line_signal(self, core: int, addr: int) -> Signal:
        """Signal fired when ``core``'s cached copy of ``addr``'s line is
        invalidated.  Local spinning waits on this with zero traffic."""
        key = (core, addr // self._line_size)
        sig = self._line_signals.get(key)
        if sig is None:
            sig = Signal(self._sim)
            self._line_signals[key] = sig
        return sig

    def cached_line_signal(
        self, core: int, addr: int, expected: Optional[int] = None,
    ) -> Optional[Signal]:
        """:meth:`line_signal`, or None when a local spin on ``addr``
        would never be woken: ``core`` does not cache the line, or
        (given ``expected``) the word no longer holds ``expected``."""
        if expected is not None and self._store.get(addr, 0) != expected:
            return None
        if addr // self._line_size not in self._l1[core]:
            return None
        return self.line_signal(core, addr)

    # ------------------------------------------------------------------ #
    # the access path

    def access(
        self,
        core: int,
        addr: int,
        kind: str,
        on_done: Callable[[int], None],
        value: Optional[int] = None,
        rmw: Optional[Callable[[int], int]] = None,
    ) -> None:
        """Perform a timed memory access from ``core``.

        * ``READ``  — ``on_done(current value)``
        * ``WRITE`` — stores ``value``; ``on_done(value)``
        * ``RMW``   — atomically applies ``rmw(old) -> new``;
          ``on_done(old value)``

        The data mutation happens at completion time, which is the access's
        serialization point (events are atomic), so RMWs are linearizable.
        """
        line = addr // self._line_size
        state = self._l1[core].get(line)
        if state is not None and (state == "M" or kind == READ):
            # The access linearizes *now*, while the core demonstrably holds
            # the line in a sufficient state; only the latency is deferred.
            # Committing later would let a concurrent remote RMW interleave
            # after an invalidation and break atomicity.
            self.l1_hits += 1
            result = self._commit(addr, kind, value, rmw)
            sim = self._sim
            sim.at(sim.now + self._l1_latency, partial(on_done, result))
            return

        self.l1_misses += 1
        self._net.send(
            self._core_eps[core],
            self._dir_eps[line % self._homes],
            ("miss", core, line, addr, kind, on_done, value, rmw),
        )

    def _on_message(self, _src: Endpoint, payload: Tuple) -> None:
        if payload[0] == "mao":
            # remote atomic: serialize at the controller like any access
            _tag, home, process = payload
            self._dir_servers[home].request(self._l2_latency, process)
            return
        line = payload[2]
        ls = self._lines.get(line)
        if ls is None:
            ls = self._lines[line] = _LineState()
            service = self._mem_latency
        else:
            service = self._l2_latency
        # Server.request's arithmetic for the home's directory slice,
        # inlined; the completion is still filed through Simulator.at
        server = self._dir_servers[line % self._homes]
        sim = self._sim
        now = sim.now
        free = server._free_at
        done = (free if free > now else now) + service
        server._free_at = done
        server.busy_cycles += service
        server.requests += 1
        sim.at(done, partial(self._serviced, payload, ls))

    def _serviced(self, payload: Tuple, ls: _LineState) -> None:
        """A miss at the head of its directory slice.

        The directory state update AND the data commit happen here,
        atomically at the directory's serialization point.  Charging
        third-party hops (owner forward / invalidation acks) before
        committing would let a racing reader cache the line with
        pre-write data — a lost-wakeup deadlock for spinlocks.  The
        fill leaves after the extra latency of those hops (the owner
        forward, or the farthest invalidated copy).
        """
        _tag, core, line, addr, kind, on_done, value, rmw = payload
        home = line % self._homes
        l1 = self._l1
        extra = 0
        if kind == READ:
            owner = ls.owner
            if owner is not None and owner != core:
                # forward to owner + cache-to-cache transfer: one extra hop
                self.owner_forwards += 1
                row = self._latency_rows[home] or self._latency_row(home)
                extra = row[owner]
                l1[owner][line] = "S"
                ls.sharers.add(owner)
                ls.owner = None
            ls.sharers.add(core)
            l1[core][line] = "S"
        else:  # WRITE / RMW — need exclusivity
            sharers = ls.sharers
            owner = ls.owner
            if sharers:
                victims = set(sharers)
                if owner is not None:
                    victims.add(owner)
                victims.discard(core)
            elif owner is not None and owner != core:
                victims = (owner,)
            else:
                victims = ()
            if victims:
                self.invalidations += len(victims)
                row = self._latency_rows[home] or self._latency_row(home)
                signals = self._line_signals
                for v in victims:
                    l1[v].pop(line, None)
                    sig = signals.get((v, line))
                    if sig is not None:
                        sig.fire()
                    if row[v] > extra:
                        extra = row[v]
            sharers.clear()
            ls.owner = core
            l1[core][line] = "M"
        result = self._commit(addr, kind, value, rmw)
        if extra:
            sim = self._sim
            sim.at(sim.now + extra,
                   partial(self._ship, home, core, on_done, result))
        else:
            self._ship(home, core, on_done, result)

    def _ship(self, home: int, core: int, on_done: Callable[[int], None],
              result: int) -> None:
        # the data rides the fill's ``on_deliver`` callback
        self._net.send(self._dir_eps[home], self._core_eps[core], ("fill",),
                       partial(on_done, result))

    def _commit(
        self,
        addr: int,
        kind: str,
        value: Optional[int],
        rmw: Optional[Callable[[int], int]],
    ) -> int:
        """Apply the access's data effect; returns the value delivered to
        the core (current value for READ, old value for RMW)."""
        if kind == READ:
            return self._store.get(addr, 0)
        if kind == WRITE:
            assert value is not None
            self._store[addr] = value
            return value
        assert rmw is not None
        old = self._store.get(addr, 0)
        self._store[addr] = rmw(old)
        return old

    # ------------------------------------------------------------------ #
    # remote atomics (Memory Atomic Operations — fetch-and-theta executed
    # at the controller, not the core; paper related-work family)

    def remote_rmw(
        self,
        core: int,
        addr: int,
        fn: Callable[[int], int],
        on_done: Callable[[int], None],
    ) -> None:
        """Apply ``fn`` to the word at its home controller; no caching.
        Any cached copies are invalidated so coherent loads stay correct.
        """
        line = addr // self._line_size
        home = line % self._homes

        def process() -> None:
            ls = self._lines.get(line)
            if ls is None:
                ls = self._lines[line] = _LineState()
            victims = set(ls.sharers)
            if ls.owner is not None:
                victims.add(ls.owner)
            for v in victims:
                self._l1[v].pop(line, None)
                sig = self._line_signals.get((v, line))
                if sig is not None:
                    sig.fire()
            ls.sharers.clear()
            ls.owner = None
            old = self._store.get(addr, 0)
            self._store[addr] = fn(old)
            self._ship(home, core, on_done, old)

        self._net.send(
            self._core_eps[core], self._dir_eps[home], ("mao", home, process)
        )

    # ------------------------------------------------------------------ #
    # background memory traffic (LRT overflow table, app phases)

    def memory_touch(self, mc: int, on_done: Callable[[], None]) -> None:
        """Charge one main-memory access at controller ``mc`` (used by the
        LRT's overflow hash table)."""
        self._dir_servers[mc].request(self._mem_latency, on_done)
