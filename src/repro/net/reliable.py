"""Reliable delivery over a faulty wire: frames, acks, retransmission.

The LCU/LRT state machines assume the interconnect never loses,
duplicates or reorders a message between one (src, dst) pair.  Fault
injection (:mod:`repro.faults`) deliberately breaks that assumption at
the wire, so covered traffic is carried inside sequence-numbered
:class:`Frame` envelopes with the classic go-back-nothing recipe:

* **sender** — every logical send gets the pair's next frame sequence
  number and is kept in a pending table until cumulatively acked; an
  unacked frame is retransmitted after a timeout that backs off
  exponentially (``rto_base`` doubling up to ``rto_cap``).
* **receiver** — frames are delivered to the real handler strictly in
  sequence order.  A frame below the expected sequence is a duplicate
  (suppressed, but re-acked so the sender stops retransmitting); a frame
  above it is held back until the gap fills.  Every arrival triggers a
  cumulative :class:`AckFrame`.

Acks travel over the same faulty wire — a lost ack simply means one more
retransmission and one more suppressed duplicate.  The layer is armed
only while a fault plan is active: without it the network's ``send``
path never touches this module, so fault-free runs pay zero overhead
and simulate bit-identically to a build without it.

``on_deliver`` callbacks (receiver-side continuations the memory system
relies on) are looked up from the sender's pending table at first
in-order delivery, so they run exactly once even when the wire delivers
five copies of the frame.  A datagram has no pending entry, so its
continuation travels with it and disarms itself on the first copy that
arrives.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.lcu import messages as lcu_msgs
from repro.sim.engine import Simulator

Endpoint = Tuple[str, int]
Pair = Tuple[Endpoint, Endpoint]

# Only distributed-queue protocol messages ride inside frames.  Coherence
# fills and SSB replies are request/response with an on_deliver
# continuation at the requester; wrapping them would let a retransmit
# race resume a thread twice, and the fault filter leaves them alone.
# (``Who`` is a queue-node identity carried inside messages, never sent.)
_PROTOCOL_MESSAGE_TYPES = frozenset((
    lcu_msgs.Request, lcu_msgs.FwdRequest, lcu_msgs.FwdNack,
    lcu_msgs.WaitMsg, lcu_msgs.Grant, lcu_msgs.Retry, lcu_msgs.ReleaseMsg,
    lcu_msgs.ReleaseAck, lcu_msgs.ReleaseRetry, lcu_msgs.HeadNotify,
    lcu_msgs.Dealloc, lcu_msgs.OvfCheck, lcu_msgs.OvfClear,
    lcu_msgs.RemoteRelease, lcu_msgs.RemoteReleaseAck,
    lcu_msgs.RemoteReleaseNack, lcu_msgs.GrantNack, lcu_msgs.QueueProbe,
    lcu_msgs.QueueProbeAck, lcu_msgs.QueueReset, lcu_msgs.QueueResetAck,
    lcu_msgs.FencedOperation, lcu_msgs.Heartbeat,
))


class Frame(NamedTuple):
    """Wire envelope: ``seq`` within its (src, dst) pair, plus payload.

    ``era`` is the pair's crash epoch: a core crash bumps the era of
    every pair the core participates in (see :meth:`ReliableLayer.
    bump_era`), restarting both sequence spaces at zero.  A frame whose
    era does not match the receiver's current era was sent before the
    crash — its sender's pending table is gone and its payload refers to
    pre-crash protocol state — so it is dropped, never delivered or
    acked.  This is what makes a restarted core's sequence numbers safe:
    a stale ``seq=3`` from the old era can never be confused with the
    fresh ``seq=3`` after rebirth."""
    seq: int
    payload: Any
    era: int = 0


class AckFrame(NamedTuple):
    """Cumulative ack: every frame with ``seq < upto`` has been delivered.
    Era-tagged like :class:`Frame`; a stale-era ack is ignored."""
    upto: int
    era: int = 0


class Datagram(NamedTuple):
    """Best-effort envelope: faulted like a :class:`Frame` (blackholes
    and drops apply at the wire), but unsequenced, never acked and never
    retransmitted — no pending state at all.

    Liveness beacons ride in these.  A heartbeat's *absence* is the
    failure detector's signal, so retransmitting one would defeat its
    purpose; worse, N cores beating every LRT as sequenced frames under
    a lossy wire melts the fabric with retransmissions (each beat
    occupies per-pair sequence space and head-of-line-blocks real lock
    traffic behind its ack).  Losing a datagram costs nothing: the next
    beat is a full liveness proof on its own."""
    payload: Any


#: payload types carried as datagrams instead of sequenced frames
_DATAGRAM_TYPES = frozenset((lcu_msgs.Heartbeat,))
#: the envelopes this layer puts on the wire (records, so tested by class)
_WIRE_TYPES = frozenset((Frame, AckFrame, Datagram))


class _Once:
    """A datagram's ``on_deliver``: a duplicated datagram reaches the
    receiver more than once, but the continuation runs on the first
    arrival only, as a frame's does."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn: Optional[Callable[[], None]] = fn

    def __call__(self) -> None:
        fn = self.fn
        if fn is not None:
            self.fn = None
            fn()


class _Pending:
    __slots__ = ("payload", "on_deliver", "attempt", "delivered")

    def __init__(self, payload: Any, on_deliver: Optional[Callable[[], None]]):
        self.payload = payload
        self.on_deliver = on_deliver
        self.attempt = 0
        self.delivered = False


class ReliableLayer:
    """Per-pair sequenced frames with ack + capped-backoff retransmit.

    One instance manages both directions of every covered pair (the
    simulation is a single process, so sender and receiver state share
    the object).  ``covers(src, dst, payload)`` decides which traffic is
    wrapped: the link predicate passed at construction gates on the
    endpoint pair (it must depend on the pair alone: its answer is kept
    per pair after the first ask), and only LCU/LRT protocol messages
    are wrapped at all
    — coherence fills and SSB replies resume blocked thread generators
    from their ``on_deliver`` callback, which a retransmitted frame must
    never run twice, and the fault filter never touches them either.  The
    covered link set should match the links the fault filter targets;
    protecting more links than are faulted only adds ack traffic.
    """

    def __init__(
        self,
        sim: Simulator,
        covers: Callable[[Endpoint, Endpoint], bool],
        rto_base: int = 256,
        rto_cap: int = 4096,
    ) -> None:
        self._sim = sim
        self._covers = covers
        self._rto_base = rto_base
        self._rto_cap = rto_cap
        self._net = None  # set by attach()
        #: (src, dst) -> the link predicate's answer for that pair
        self._covered: Dict[Pair, bool] = {}

        self._send_seq: Dict[Pair, int] = {}
        self._pending: Dict[Pair, Dict[int, _Pending]] = {}
        self._recv_next: Dict[Pair, int] = {}
        self._holdback: Dict[Pair, Dict[int, Frame]] = {}
        self._era: Dict[Pair, int] = {}

        self.frames_sent = 0
        self.datagrams_sent = 0
        self.acks_sent = 0
        self.retransmits = 0
        self.dups_suppressed = 0
        self.holdbacks = 0
        self.era_bumps = 0
        self.era_drops = 0

    # ------------------------------------------------------------------ #

    def attach(self, net) -> None:
        self._net = net
        net.set_reliable(self)

    def detach(self) -> None:
        """Disarm.  Call only once in-flight traffic has drained — a
        frame arriving afterwards would hit the raw handler."""
        if self._net is not None:
            self._net.set_reliable(None)
            self._net = None

    def covers(self, src: Endpoint, dst: Endpoint, payload: Any) -> bool:
        if payload.__class__ not in _PROTOCOL_MESSAGE_TYPES:
            return False
        pair = (src, dst)
        covered = self._covered.get(pair)
        if covered is None:
            covered = self._covered[pair] = (
                src != dst and self._covers(src, dst)
            )
        return covered

    @staticmethod
    def intercepts(payload: Any) -> bool:
        return payload.__class__ in _WIRE_TYPES

    def pending_frames(self) -> int:
        """Logical sends not yet acked (0 == channel fully drained)."""
        return sum(len(p) for p in self._pending.values())

    def stats(self) -> Dict[str, int]:
        return {
            "frames_sent": self.frames_sent,
            "datagrams_sent": self.datagrams_sent,
            "acks_sent": self.acks_sent,
            "retransmits": self.retransmits,
            "dups_suppressed": self.dups_suppressed,
            "holdbacks": self.holdbacks,
            "era_bumps": self.era_bumps,
            "era_drops": self.era_drops,
            "pending": self.pending_frames(),
        }

    def bump_era(self, ep: Endpoint) -> int:
        """Crash notification: endpoint ``ep`` died with all its frame
        state.  Every pair it participates in (either direction) opens a
        new era — pending frames are abandoned (their payloads refer to
        pre-crash protocol state), both sequence spaces restart at zero,
        and holdback frames from the old era are discarded.  In-flight
        old-era frames and acks are dropped on arrival by the era check.
        Returns the number of pairs bumped."""
        pairs = set()
        for table in (
            self._send_seq, self._recv_next,
            self._pending, self._holdback, self._era,
        ):
            for pair in table:
                if ep in pair:
                    pairs.add(pair)
        for pair in pairs:
            self._era[pair] = self._era.get(pair, 0) + 1
            self._send_seq[pair] = 0
            self._recv_next[pair] = 0
            self._pending.pop(pair, None)
            self._holdback.pop(pair, None)
        self.era_bumps += 1
        return len(pairs)

    # ------------------------------------------------------------------ #
    # sender side

    def send(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        on_deliver: Optional[Callable[[], None]],
    ) -> None:
        if payload.__class__ in _DATAGRAM_TYPES:
            # Best-effort: onto the wire once, no sequence, no pending
            # entry, no ack, no retransmission.  Still injected below
            # the fault filter so blackholes and drops starve it.
            self.datagrams_sent += 1
            self._net._inject(
                src, dst, Datagram(payload),
                None if on_deliver is None else _Once(on_deliver),
            )
            return
        pair = (src, dst)
        seq = self._send_seq.get(pair, 0)
        self._send_seq[pair] = seq + 1
        self._pending.setdefault(pair, {})[seq] = _Pending(payload, on_deliver)
        self._transmit(pair, seq)

    def _transmit(self, pair: Pair, seq: int) -> None:
        pend = self._pending.get(pair, {}).get(seq)
        if pend is None:  # acked while the retransmit timer was pending
            return
        pend.attempt += 1
        self.frames_sent += 1
        self._net._inject(
            pair[0], pair[1],
            Frame(seq, pend.payload, self._era.get(pair, 0)),
        )
        rto = min(self._rto_base << (pend.attempt - 1), self._rto_cap)
        attempt = pend.attempt
        self._sim.after(rto, lambda: self._retransmit_check(pair, seq, attempt))

    def _retransmit_check(self, pair: Pair, seq: int, attempt: int) -> None:
        pend = self._pending.get(pair, {}).get(seq)
        if pend is None or pend.attempt != attempt:
            return  # acked, or a newer attempt owns the timer
        self.retransmits += 1
        self._transmit(pair, seq)

    # ------------------------------------------------------------------ #
    # receiver side (called from Network._deliver)

    def on_wire(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        on_deliver: Optional[Callable[[], None]],
    ) -> None:
        """One wire envelope arrives.  ``on_deliver`` is the sender's
        continuation riding a :class:`Datagram`; frames and acks carry
        none (a frame's waits in the pending table)."""
        if isinstance(payload, Datagram):
            self._net._handlers[dst](src, payload.payload)
            if on_deliver is not None:
                on_deliver()
            return
        if isinstance(payload, AckFrame):
            # ack for the reverse direction: dst originally sent to src
            if payload.era != self._era.get((dst, src), 0):
                self.era_drops += 1
                return
            self._on_ack((dst, src), payload.upto)
            return
        assert isinstance(payload, Frame)
        pair = (src, dst)
        if payload.era != self._era.get(pair, 0):
            # Pre-crash frame surfacing after the era bump: its payload
            # belongs to protocol state that died with the crash.  Drop
            # without acking — the old era's pending table is gone, so
            # nothing is retransmitting it.
            self.era_drops += 1
            return
        expect = self._recv_next.get(pair, 0)
        if payload.seq < expect:
            self.dups_suppressed += 1
        elif payload.seq == expect:
            self._deliver(pair, payload)
            expect += 1
            hb = self._holdback.get(pair)
            if hb:
                while expect in hb:
                    frame = hb.pop(expect)
                    expect += 1
                    self._recv_next[pair] = expect
                    self._deliver(pair, frame)
            self._recv_next[pair] = expect
        else:
            hb = self._holdback.setdefault(pair, {})
            if payload.seq in hb:
                self.dups_suppressed += 1
            else:
                hb[payload.seq] = payload
                self.holdbacks += 1
        self.acks_sent += 1
        self._net._inject(
            dst, src,
            AckFrame(self._recv_next.get(pair, 0), self._era.get(pair, 0)),
        )

    def _deliver(self, pair: Pair, frame: Frame) -> None:
        src, dst = pair
        pend = self._pending.get(pair, {}).get(frame.seq)
        on_deliver = None
        if pend is not None and not pend.delivered:
            pend.delivered = True
            on_deliver = pend.on_deliver
        self._net._handlers[dst](src, frame.payload)
        if on_deliver is not None:
            on_deliver()

    def _on_ack(self, pair: Pair, upto: int) -> None:
        pend = self._pending.get(pair)
        if not pend:
            return
        for seq in [s for s in pend if s < upto]:
            del pend[seq]
