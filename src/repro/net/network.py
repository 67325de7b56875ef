"""Message-passing interconnect with queueing and finite link bandwidth.

Two topologies are modelled through one class, parameterised by the
machine config:

* **Model A** — a hierarchical switch: every message crosses a per-endpoint
  access link and a shared root stage.  The root stage gives the global
  ordering point GEMS approximates for model A; it has generous bandwidth,
  so model A contention shows up mostly as latency, not saturation.

* **Model B** — per-chip crossbars for intra-chip traffic and four
  coherence-hub links for inter-chip traffic.  The hub links have a much
  larger per-message occupancy (``inter_chip_link_service``), so protocols
  that busy-wait with *remote* messages (the SSB's retry loop) saturate
  them — the effect behind the paper's Figure 9b.

Mechanically, each message rides one slotted :class:`_Transit` frame
object through the fabric.  The sequence of servers a (src, dst) pair
occupies — and the service cycles each charges — never changes, so it is
resolved once into a cached *route* (a tuple of ``(server, service)``
hops plus the propagation delay); the transit frame then walks the route
by re-scheduling itself at each hop completion.  Drained frames are
recycled through a free list.  This replaces the closure-per-hop
dispatch the hub previously allocated per message (~5 closures/message)
with zero per-message allocations in the steady state, while keeping the
event schedule bit-identical: same ``Server.request`` calls at the same
cycles in the same order.

Messages between a fixed (src, dst) pair are delivered FIFO — this is the
network ordering assumption the LCU/LRT state machines rely on (the paper
notes transient states would otherwise be needed).  Under the default
*stable* event order (``Simulator.stable_order``) the guarantee holds by
construction: FIFO servers, constant per-pair propagation and FIFO
same-cycle event dispatch cannot reorder a pair's messages, so the wire
delivers directly.  Under a perturbed ``tiebreak_seed`` two same-cycle
arrivals on one pair *can* invert — e.g. a pair of one-cycle self-sends —
so there the guarantee is *enforced*: every message is stamped with a
per-(src, dst) sequence number at fabric entry and the delivery stage
holds back any arrival that would overtake a lower-stamped one (same
cycles, same healed order as the stable schedule).

Fault injection (``repro.faults``) plugs in at two points, both inert
when unused:

* ``fault_filter`` — called at fabric entry for every non-self message;
  returns the (possibly empty) list of ``(extra_delay, payload)`` copies
  to actually transmit.  Drop/duplicate/delay faults live here, *before*
  the FIFO stamp is assigned, so a delayed copy is genuinely reordered
  relative to later traffic.
* a reliable-delivery layer (:mod:`repro.net.reliable`) that wraps
  covered traffic in sequence-numbered frames with ack/retransmit, so
  the protocol survives what the filter does to the wire.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.params import MachineConfig
from repro.sim.engine import Server, Simulator

# An endpoint is any hashable id; the machine uses ("core", i) and ("mc", j).
Endpoint = Tuple[str, int]

#: fault filter: (src, dst, payload) -> iterable of (extra_delay, payload)
#: copies to transmit.  Empty iterable == message dropped on the wire.
FaultFilter = Callable[[Endpoint, Endpoint, Any], Iterable[Tuple[int, Any]]]

#: a resolved route: ((server, service) hops, propagation delay,
#: crosses-a-chip-boundary flag)
Route = Tuple[Tuple[Tuple[Server, int], ...], int, bool]


class _Transit:
    """One in-flight message: a slotted, reusable event frame.

    The frame is its own event callback: each invocation advances one
    phase — occupy the next route hop, then wait out the propagation
    delay, then hand off to delivery.  ``hop`` counts phases: values
    ``0..len(hops)-1`` are server hops, ``len(hops)`` is propagation,
    beyond that is delivery.
    """

    __slots__ = (
        "net", "src", "dst", "payload", "on_deliver", "hops", "prop",
        "hop", "stamp",
    )

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.src: Any = None
        self.dst: Any = None
        self.payload: Any = None
        self.on_deliver: Optional[Callable[[], None]] = None
        self.hops: Tuple[Tuple[Server, int], ...] = ()
        self.prop = 0
        self.hop = 0
        self.stamp = 0

    def __call__(self) -> None:
        hop = self.hop
        hops = self.hops
        if hop < len(hops):
            self.hop = hop + 1
            server, service = hops[hop]
            server.request(service, self)
            return
        if hop == len(hops):
            self.hop = hop + 1
            self.net._sim.after(self.prop, self)
            return
        self.net._finish(self)


class Network:
    """Routes payloads between registered endpoints, charging latency and
    link occupancy along the way."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        chip_of: Callable[[Endpoint], int],
    ) -> None:
        self._sim = sim
        self._config = config
        self._chip_of = chip_of
        self._handlers: Dict[Endpoint, Callable[[Endpoint, Any], None]] = {}

        # Fabric resources.
        self._access: Dict[Endpoint, Server] = {}
        self._crossbars: Dict[int, Server] = {
            c: Server(sim, f"xbar{c}") for c in range(config.chips)
        }
        self._hub_out: Dict[int, Server] = {
            c: Server(sim, f"hub_out{c}") for c in range(config.chips)
        }
        self._hub_in: Dict[int, Server] = {
            c: Server(sim, f"hub_in{c}") for c in range(config.chips)
        }
        # Model A's root switch (ordering point).  Only used when
        # config.global_order is set.
        self._root = Server(sim, "root_switch")

        self.messages_sent = 0
        self.inter_chip_messages = 0
        #: same-cycle arrival inversions healed by the per-pair FIFO stage
        #: (only ever non-zero under a perturbed ``tiebreak_seed``)
        self.reorders_healed = 0
        #: the bus's ``net`` topic (see :mod:`repro.sim.bus`), published
        #: once per logical :meth:`send`
        self._subs = sim.bus.net
        #: fault-injection hook (see module docstring); None == no faults
        self.fault_filter: Optional[FaultFilter] = None
        # reliable-delivery layer (repro.net.reliable); None == raw wire
        self._reliable = None

        # Resolved (src, dst) -> Route cache and the transit free list.
        self._routes: Dict[Tuple[Endpoint, Endpoint], Route] = {}
        self._transit_pool: list = []

        # Per-(src, dst) FIFO enforcement (tiebreak runs only — see
        # module docstring): fabric-entry stamps, the next stamp each
        # pair expects to deliver, and held-back arrivals.
        self._fifo_enforced = not sim.stable_order
        self._pair_stamp: Dict[Tuple[Endpoint, Endpoint], int] = {}
        self._pair_expect: Dict[Tuple[Endpoint, Endpoint], int] = {}
        self._pair_stash: Dict[
            Tuple[Endpoint, Endpoint], Dict[int, "_Transit"]
        ] = {}

    # ------------------------------------------------------------------ #

    def register(
        self, endpoint: Endpoint, handler: Callable[[Endpoint, Any], None]
    ) -> None:
        """Attach ``handler(src, payload)`` to ``endpoint``."""
        if endpoint in self._handlers:
            raise ValueError(f"endpoint {endpoint} already registered")
        self._handlers[endpoint] = handler
        self._access[endpoint] = Server(self._sim, f"acc{endpoint}")
        # a late registration grows the fabric: resolved routes that
        # predate this endpoint's access link are stale
        self._routes.clear()

    def is_registered(self, endpoint: Endpoint) -> bool:
        return endpoint in self._handlers

    def set_reliable(self, layer) -> None:
        """Install (or remove, with ``None``) the reliable-delivery layer."""
        self._reliable = layer

    @property
    def reliable(self):
        return self._reliable

    # ------------------------------------------------------------------ #

    def latency_estimate(self, src: Endpoint, dst: Endpoint) -> int:
        """Uncongested one-way latency between two endpoints."""
        if src == dst:
            return 1
        if self._chip_of(src) == self._chip_of(dst):
            return self._config.intra_chip_hop
        return self._config.inter_chip_hop

    def send(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        on_deliver: Optional[Callable[[], None]] = None,
    ) -> None:
        """Send ``payload`` from ``src`` to ``dst``.

        The destination handler runs at delivery time; ``on_deliver`` (if
        given) runs right after it.  Self-sends are delivered after one
        cycle without touching the fabric.

        This is the *logical* send: ``net`` bus subscribers see it here,
        and the reliable layer (when armed) takes over from here.
        Frames, acks and retransmissions enter below it through
        :meth:`_inject`.
        """
        if dst not in self._handlers:
            raise KeyError(f"no handler registered for endpoint {dst}")
        if self._subs:
            on_deliver = self._publish(src, dst, payload, on_deliver)
        if self._reliable is not None and self._reliable.covers(
            src, dst, payload
        ):
            self._reliable.send(src, dst, payload, on_deliver)
            return
        self._inject(src, dst, payload, on_deliver)

    def _publish(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        on_deliver: Optional[Callable[[], None]],
    ) -> Optional[Callable[[], None]]:
        """Tell every ``net`` subscriber about one send.  Returns the
        delivery continuation: the callables subscribers returned, in
        subscription order, then the sender's own ``on_deliver``."""
        after = []
        for sub in self._subs:
            fn = sub(src, dst, payload)
            if fn is not None:
                after.append(fn)
        if not after:
            return on_deliver
        if on_deliver is not None:
            after.append(on_deliver)
        elif len(after) == 1:
            return after[0]

        def run_after() -> None:
            for fn in after:
                fn()

        return run_after

    # ------------------------------------------------------------------ #
    # wire layer

    def _inject(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        on_deliver: Optional[Callable[[], None]] = None,
    ) -> None:
        """Put one message on the wire (fault filter applies here)."""
        self.messages_sent += 1

        if self.fault_filter is not None and src != dst:
            for extra_delay, copy in list(
                self.fault_filter(src, dst, payload)
            ):
                if extra_delay > 0:
                    self._sim.after(
                        extra_delay,
                        lambda c=copy: self._transmit(src, dst, c, on_deliver),
                    )
                else:
                    self._transmit(src, dst, copy, on_deliver)
            return
        self._transmit(src, dst, payload, on_deliver)

    def _transmit(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        on_deliver: Optional[Callable[[], None]],
    ) -> None:
        """Carry ``payload`` through the fabric on a transit frame.  The
        per-pair FIFO stamp (tiebreak runs) is assigned *here* — after
        any fault-injected delay — so delayed copies are genuinely
        reordered rather than holding back the pair."""
        route = self._routes.get((src, dst))
        if route is None:
            route = self._resolve_route(src, dst)
        hops, prop, inter = route
        if inter:
            self.inter_chip_messages += 1

        pool = self._transit_pool
        tr = pool.pop() if pool else _Transit(self)
        tr.src = src
        tr.dst = dst
        tr.payload = payload
        tr.on_deliver = on_deliver
        tr.hops = hops
        tr.prop = prop
        tr.hop = 0
        if self._fifo_enforced:
            pair = (src, dst)
            stamp = self._pair_stamp.get(pair, 0)
            self._pair_stamp[pair] = stamp + 1
            tr.stamp = stamp
        tr()

    def _resolve_route(self, src: Endpoint, dst: Endpoint) -> Route:
        """Build and cache the (src, dst) route: the server chain the
        message occupies in order, each with its service time, plus the
        propagation delay added after the last hop."""
        cfg = self._config
        if src == dst:
            route: Route = ((), 1, False)
        else:
            same_chip = self._chip_of(src) == self._chip_of(dst)
            hops = []
            acc = self._access.get(src)
            if acc is not None:
                hops.append((acc, cfg.link_service))
            if cfg.global_order:
                hops.append((self._root, cfg.link_service))
            elif same_chip:
                hops.append((self._crossbars[self._chip_of(src)],
                             cfg.link_service))
            else:
                hops.append((self._crossbars[self._chip_of(src)],
                             cfg.link_service))
                hops.append((self._hub_out[self._chip_of(src)],
                             cfg.inter_chip_link_service))
                hops.append((self._hub_in[self._chip_of(dst)],
                             cfg.inter_chip_link_service))
            acc = self._access.get(dst)
            if acc is not None:
                hops.append((acc, cfg.link_service))
            prop = (cfg.intra_chip_hop if same_chip else cfg.inter_chip_hop)
            # the inter-chip counter only ticks for hub traffic (model B);
            # model A's root path is a latency effect, not hub occupancy
            route = (tuple(hops), prop,
                     not same_chip and not cfg.global_order)
        self._routes[(src, dst)] = route
        return route

    def _finish(self, tr: "_Transit") -> None:
        """A transit frame cleared its last hop and the propagation
        delay: hand off to delivery (directly, or via the FIFO stage on
        tiebreak runs)."""
        if self._fifo_enforced:
            self._arrive(tr)
            return
        self._deliver(tr)

    def _arrive(self, tr: "_Transit") -> None:
        """Per-pair FIFO stage: deliver in fabric-entry order.

        Messages on one pair reach here with non-decreasing arrival
        cycles (FIFO servers, constant propagation), so any inversion is
        same-cycle tie-break noise — the held-back message's predecessor
        is already queued at this very cycle and the stash drains before
        the clock advances.
        """
        pair = (tr.src, tr.dst)
        expect = self._pair_expect.get(pair, 0)
        if tr.stamp != expect:
            self.reorders_healed += 1
            self._pair_stash.setdefault(pair, {})[tr.stamp] = tr
            return
        self._deliver(tr)
        expect += 1
        stash = self._pair_stash.get(pair)
        if stash:
            while expect in stash:
                nxt = stash.pop(expect)
                expect += 1
                # update before delivering: the handler may send again
                self._pair_expect[pair] = expect
                self._deliver(nxt)
        self._pair_expect[pair] = expect

    def _deliver(self, tr: "_Transit") -> None:
        src = tr.src
        dst = tr.dst
        payload = tr.payload
        on_deliver = tr.on_deliver
        # The frame is fully consumed: clear its references and recycle
        # it *before* running the handler, which may send again.
        tr.src = tr.dst = tr.payload = None
        tr.on_deliver = None
        tr.hops = ()
        if len(self._transit_pool) < 64:
            self._transit_pool.append(tr)
        if self._reliable is not None and self._reliable.intercepts(payload):
            self._reliable.on_wire(src, dst, payload)
            return
        self._handlers[dst](src, payload)
        if on_deliver is not None:
            on_deliver()

    # ------------------------------------------------------------------ #
    # introspection used by the harness and the telemetry layer

    def fabric_servers(self):
        """Yield ``(group, label, Server)`` for every fabric resource —
        the telemetry layer's inventory (``repro.obs.instrument``)."""
        for ep in sorted(self._access):
            yield ("access", f"{ep[0]}{ep[1]}", self._access[ep])
        for c in sorted(self._crossbars):
            yield ("xbar", str(c), self._crossbars[c])
        for c in sorted(self._hub_out):
            yield ("hub_out", str(c), self._hub_out[c])
        for c in sorted(self._hub_in):
            yield ("hub_in", str(c), self._hub_in[c])
        yield ("root", "", self._root)

    def hub_utilisation(self) -> float:
        """Mean utilisation of the inter-chip hub links (Model B)."""
        hubs = list(self._hub_out.values()) + list(self._hub_in.values())
        if not hubs:
            return 0.0
        return sum(h.utilisation() for h in hubs) / len(hubs)

    def root_utilisation(self) -> float:
        return self._root.utilisation()
