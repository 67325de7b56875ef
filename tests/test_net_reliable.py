"""Unit tests for the reliable-delivery layer (frames, acks, RTO)."""

import random
import types

import pytest

from repro.lcu.messages import Dealloc, Heartbeat, QueueProbe
from repro.net.network import Network
from repro.net.reliable import AckFrame, Datagram, Frame, ReliableLayer
from repro.obs import SpanTracer
from repro.params import small_test_model
from repro.sim.engine import Simulator

CORE0 = ("core", 0)
CORE1 = ("core", 1)


def make_net():
    config = small_test_model()
    sim = Simulator()

    def chip_of(ep):
        kind, idx = ep
        if kind == "core":
            return config.chip_of_core(idx)
        return idx * config.chips // config.num_lrts

    net = Network(sim, config, chip_of)
    return sim, net


def make_reliable(sim, net, covers=lambda s, d: True, **kw):
    layer = ReliableLayer(sim, covers, **kw)
    layer.attach(net)
    return layer


class TestCoverage:
    def test_wraps_protocol_messages_only(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        m = Dealloc(0x100, 1)
        assert layer.covers(CORE0, CORE1, m)
        # raw payloads (coherence fills, strings, ...) are never framed:
        # a retransmitted frame must not re-run an on_deliver continuation
        assert not layer.covers(CORE0, CORE1, "cache line")
        assert not layer.covers(CORE0, CORE0, m), "self-sends bypass"

    def test_intercepts_frames_and_acks(self):
        assert ReliableLayer.intercepts(Frame(0, "x"))
        assert ReliableLayer.intercepts(AckFrame(3))
        assert not ReliableLayer.intercepts(Dealloc(0x100, 1))

    def test_link_predicate_gates_pairs(self):
        sim, net = make_net()
        layer = make_reliable(sim, net, covers=lambda s, d: s == CORE0)
        m = QueueProbe(0x100, 2)
        assert layer.covers(CORE0, CORE1, m)
        assert not layer.covers(CORE1, CORE0, m)


class TestLossRecovery:
    def test_clean_wire_delivers_in_order(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))
        msgs = [Dealloc(0x100, t) for t in range(4)]
        for m in msgs:
            net.send(CORE0, CORE1, m)
        sim.run()
        assert got == msgs
        assert layer.pending_frames() == 0
        assert layer.retransmits == 0

    def test_dropped_frame_is_retransmitted(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))

        dropped = []

        def fault(src, dst, payload):
            if isinstance(payload, Frame) and not dropped:
                dropped.append(payload)
                return []  # swallow the first frame
            return [(0, payload)]

        net.fault_filter = fault
        m = Dealloc(0x100, 7)
        net.send(CORE0, CORE1, m)
        sim.run()
        assert dropped, "fault filter never saw the frame"
        assert got == [m], "retransmission must deliver exactly once"
        assert layer.retransmits >= 1
        assert layer.pending_frames() == 0

    def test_duplicate_frames_deliver_once(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))
        net.fault_filter = lambda s, d, p: (
            [(0, p), (5, p)] if isinstance(p, Frame) else [(0, p)]
        )
        m = Dealloc(0x100, 7)
        net.send(CORE0, CORE1, m)
        sim.run()
        assert got == [m]
        assert layer.dups_suppressed >= 1

    def test_reordered_frames_held_back(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))

        def fault(src, dst, payload):
            # delay only the first frame so the second overtakes it
            if isinstance(payload, Frame) and payload.seq == 0:
                return [(500, payload)]
            return [(0, payload)]

        net.fault_filter = fault
        msgs = [Dealloc(0x100, t) for t in range(3)]
        for m in msgs:
            net.send(CORE0, CORE1, m)
        sim.run()
        assert got == msgs, "holdback must restore send order"
        assert layer.holdbacks >= 1
        assert layer.pending_frames() == 0

    def test_lost_ack_causes_suppressed_duplicate(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))

        eaten = []

        def fault(src, dst, payload):
            if isinstance(payload, AckFrame) and not eaten:
                eaten.append(payload)
                return []
            return [(0, payload)]

        net.fault_filter = fault
        m = Dealloc(0x100, 9)
        net.send(CORE0, CORE1, m)
        sim.run()
        assert got == [m]
        assert layer.retransmits >= 1
        assert layer.dups_suppressed >= 1
        assert layer.pending_frames() == 0

    def test_on_deliver_runs_exactly_once_despite_dups(self):
        sim, net = make_net()
        make_reliable(sim, net)
        cb = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: None)
        net.fault_filter = lambda s, d, p: (
            [(0, p), (3, p), (9, p)] if isinstance(p, Frame) else [(0, p)]
        )
        net.send(CORE0, CORE1, Dealloc(0x100, 1),
                 on_deliver=lambda: cb.append(1))
        sim.run()
        assert cb == [1]

    def test_datagram_on_deliver_runs_once_despite_dups(self):
        # a datagram has no pending entry: its continuation travels with
        # it, runs after the handler, and a duplicated copy must not run
        # it again (a SpanTracer's end() would raise on the second call)
        sim, net = make_net()
        layer = make_reliable(sim, net)
        tracer = SpanTracer().attach(types.SimpleNamespace(sim=sim))
        got, cb = [], []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))
        net.fault_filter = lambda s, d, p: (
            [(0, p), (3, p), (9, p)] if isinstance(p, Datagram)
            else [(0, p)]
        )
        beat = Heartbeat(core=0)
        net.send(CORE0, CORE1, beat, on_deliver=lambda: cb.append(got[:]))
        sim.run()
        assert got == [beat, beat, beat], "datagrams are not deduplicated"
        assert cb == [[beat]], "continuation runs once, after the handler"
        assert layer.datagrams_sent == 1
        assert [s.name for s in tracer.spans] == ["Heartbeat"]
        assert tracer.open_count == 0


class TestBackoff:
    def test_rto_backs_off_and_caps(self):
        sim, net = make_net()
        layer = make_reliable(sim, net, rto_base=16, rto_cap=64)
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: None)
        times = []

        def fault(src, dst, payload):
            if isinstance(payload, Frame):
                times.append(sim.now)
                if len(times) < 6:
                    return []
            return [(0, payload)]

        net.fault_filter = fault
        net.send(CORE0, CORE1, Dealloc(0x100, 1))
        sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == sorted(gaps), "RTO must be non-decreasing"
        assert max(gaps) <= 64 + 1, "RTO must respect the cap"
        assert layer.pending_frames() == 0

    def test_stats_shape(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        s = layer.stats()
        assert set(s) == {
            "frames_sent", "datagrams_sent", "acks_sent", "retransmits",
            "dups_suppressed", "holdbacks", "pending",
            "era_bumps", "era_drops",
        }


class TestDropStorm:
    """Property tests under sustained seeded loss: whatever the storm
    does, the channel must drain to zero pending with send order intact
    and continuations run exactly once."""

    @pytest.mark.parametrize("seed", [7, 99, 1234])
    def test_storm_drains_in_order_exactly_once(self, seed):
        sim, net = make_net()
        layer = make_reliable(sim, net, rto_base=32, rto_cap=256)
        got, cb = [], []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))
        rng = random.Random(seed)

        def storm(src, dst, payload):
            # 70% loss on frames AND acks while the storm lasts, plus
            # occasional duplication with a delayed second copy
            if sim.now < 4_000:
                r = rng.random()
                if r < 0.7:
                    return []
                if r < 0.8:
                    return [(0, payload), (rng.randrange(1, 200), payload)]
            return [(0, payload)]

        net.fault_filter = storm
        msgs = [Dealloc(0x100, t) for t in range(12)]
        for i, m in enumerate(msgs):
            net.send(CORE0, CORE1, m,
                     on_deliver=(lambda i=i: cb.append(i)))
        sim.run()
        assert got == msgs, "storm must not lose or reorder deliveries"
        assert cb == sorted(cb) and len(cb) == len(set(cb)) == 12, \
            "continuations must run exactly once, in order"
        assert layer.pending_frames() == 0, "channel must drain"

    def test_blackout_probes_flatten_at_rto_cap(self):
        # a blackout much longer than log2(cap/base) doublings: the
        # retransmit gap must flatten at the cap, not keep doubling
        sim, net = make_net()
        layer = make_reliable(sim, net, rto_base=16, rto_cap=128)
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: None)
        times = []

        def blackout(src, dst, payload):
            if isinstance(payload, Frame):
                times.append(sim.now)
                if sim.now < 2_000:
                    return []
            return [(0, payload)]

        net.fault_filter = blackout
        net.send(CORE0, CORE1, Dealloc(0x100, 1))
        sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == sorted(gaps), "RTO must be non-decreasing"
        assert all(g <= 128 for g in gaps), "RTO must respect the cap"
        assert gaps.count(128) >= 3, "long blackout must flatten at cap"
        assert layer.pending_frames() == 0

    def test_stale_era_frame_not_mistaken_for_new_era_dup(self):
        """The seq/era hazard: after a crash the sequence space restarts
        at zero, so a pre-crash frame with seq=0 carries the *same*
        sequence number as the first post-crash frame.  The era tag —
        not dup suppression — must reject it."""
        sim, net = make_net()
        layer = make_reliable(sim, net)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))
        held = []

        def capture(src, dst, payload):
            if isinstance(payload, Frame) and not held:
                held.append((src, dst, payload))
            return [(0, payload)]

        net.fault_filter = capture
        m0 = Dealloc(0x100, 1)
        net.send(CORE0, CORE1, m0)
        sim.run()
        assert got == [m0] and held

        # CORE0 crashes: every pair it participates in opens a new era
        assert layer.bump_era(CORE0) >= 1
        net.fault_filter = None
        m1 = Dealloc(0x200, 2)
        net.send(CORE0, CORE1, m1)
        sim.run()
        assert got == [m0, m1], "new era restarts seq space cleanly"

        # replay the captured pre-crash frame: same seq (0) as the
        # post-crash frame just delivered, but stamped with the old era
        dups, drops = layer.dups_suppressed, layer.era_drops
        src, dst, frame = held[0]
        net._inject(src, dst, frame)
        sim.run()
        assert got == [m0, m1], "stale-era frame must not deliver"
        assert layer.era_drops == drops + 1
        assert layer.dups_suppressed == dups, \
            "must be rejected by era, not mis-acked as a duplicate"


class TestDetach:
    def test_detach_restores_raw_path(self):
        sim, net = make_net()
        layer = make_reliable(sim, net)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))
        net.send(CORE0, CORE1, Dealloc(0x100, 1))
        sim.run()
        layer.detach()
        assert net.reliable is None
        net.send(CORE0, CORE1, Dealloc(0x100, 2))
        sim.run()
        assert [p.tid for p in got] == [1, 2]
        assert layer.frames_sent == 1, "post-detach send must not frame"


class TestAsymmetricLoss:
    """Gray-failure coverage: an asymmetric partition blackholes one
    direction of a link 100% while the reverse path stays clean — the
    shape ``partition_links`` injects.  Whichever direction is dark
    (data frames out, or acks back), after the heal the channel must
    converge: every message delivered exactly once, in order, zero
    pending, and the retransmit clock pinned at the RTO cap for the
    duration of the blackhole."""

    def test_forward_blackhole_heals_and_converges(self):
        # data direction CORE0 -> CORE1 dark; acks CORE1 -> CORE0 clean
        sim, net = make_net()
        layer = make_reliable(sim, net, rto_base=16, rto_cap=128)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))

        def blackhole(src, dst, payload):
            if isinstance(payload, Frame) and src == CORE0 \
                    and sim.now < 2_000:
                return []
            return [(0, payload)]

        net.fault_filter = blackhole
        msgs = [Dealloc(0x100, t) for t in range(3)]
        for m in msgs:
            net.send(CORE0, CORE1, m)
        sim.run()
        assert got == msgs, "heal must deliver exactly once, in order"
        assert layer.retransmits >= 1
        assert layer.pending_frames() == 0, "acks must converge after heal"

    def test_ack_blackhole_no_duplicate_delivery(self):
        # data direction clean; ack direction CORE1 -> CORE0 dark: the
        # sender keeps retransmitting already-delivered frames and the
        # receiver must suppress every duplicate
        sim, net = make_net()
        layer = make_reliable(sim, net, rto_base=16, rto_cap=128)
        got = []
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: got.append(p))

        def blackhole(src, dst, payload):
            if isinstance(payload, AckFrame) and src == CORE1 \
                    and sim.now < 2_000:
                return []
            return [(0, payload)]

        net.fault_filter = blackhole
        msgs = [Dealloc(0x100, t) for t in range(3)]
        for m in msgs:
            net.send(CORE0, CORE1, m)
        sim.run()
        assert got == msgs, "dup suppression must hold under ack loss"
        assert layer.dups_suppressed >= 1, \
            "the dark ack path must actually force duplicates"
        assert layer.pending_frames() == 0

    def test_one_way_blackhole_rto_flattens_at_cap(self):
        sim, net = make_net()
        layer = make_reliable(sim, net, rto_base=16, rto_cap=128)
        net.register(CORE0, lambda s, p: None)
        net.register(CORE1, lambda s, p: None)
        times = []

        def blackhole(src, dst, payload):
            if isinstance(payload, Frame) and src == CORE0:
                times.append(sim.now)
                if sim.now < 2_000:
                    return []
            return [(0, payload)]

        net.fault_filter = blackhole
        net.send(CORE0, CORE1, Dealloc(0x100, 1))
        sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == sorted(gaps), "RTO must be non-decreasing"
        assert all(g <= 128 for g in gaps), "RTO must respect the cap"
        assert gaps.count(128) >= 3, "long blackhole must flatten at cap"
        assert layer.pending_frames() == 0
