"""Fault plans: validation, JSON round-trips, seeded generation, and the
injector's arming/classification behaviour."""

import pytest

from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.faults.injector import FaultInjector, FaultOutcome
from repro.faults.plan import (
    ALL_CLASSES,
    LINK_SETS,
    FaultEvent,
    FaultPlan,
    generate_plan,
)
from repro.lcu.recovery import RecoveringLCU, RecoveringLRT
from repro.params import small_test_model

pytestmark = pytest.mark.faults


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            FaultEvent(kind="meteor", at=100)

    def test_rejects_unknown_link_set(self):
        with pytest.raises(ValueError, match="unknown link set"):
            FaultEvent(kind="drop", at=100, links="wifi")

    def test_point_event_window(self):
        e = FaultEvent(kind="evict", at=500)
        assert e.end == 500
        w = FaultEvent(kind="drop", at=500, duration=200, prob=0.5)
        assert w.end == 700

    def test_round_trip(self):
        e = FaultEvent(kind="delay", at=10, duration=99, prob=0.25,
                       links="inter_chip", max_delay=400)
        assert FaultEvent.from_dict(e.to_dict()) == e

    def test_from_dict_rejects_unknown_fields(self):
        doc = FaultEvent(kind="evict", at=5).to_dict()
        doc["severity"] = "bad"
        with pytest.raises(ValueError, match="unknown FaultEvent fields"):
            FaultEvent.from_dict(doc)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = generate_plan(seed=42, horizon=50_000)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.to_json() == plan.to_json()

    def test_from_dict_rejects_unknown_fields(self):
        doc = generate_plan(seed=1, classes=["evict"]).to_dict()
        doc["comment"] = "hello"
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict(doc)

    def test_from_dict_rejects_future_format(self):
        doc = generate_plan(seed=1, classes=["evict"]).to_dict()
        doc["format"] = 99
        with pytest.raises(ValueError, match="unsupported FaultPlan format"):
            FaultPlan.from_dict(doc)

    def test_classes_and_needs_reliable(self):
        plan = generate_plan(seed=3, classes=["stall", "drop"])
        assert set(plan.classes) == {"stall", "drop"}
        assert plan.needs_reliable()
        sched_only = generate_plan(seed=3, classes=["preempt"])
        assert not sched_only.needs_reliable()


class TestGeneration:
    def test_same_seed_same_plan(self):
        assert generate_plan(seed=7) == generate_plan(seed=7)

    def test_different_seed_different_plan(self):
        assert generate_plan(seed=7) != generate_plan(seed=8)

    def test_covers_requested_classes(self):
        plan = generate_plan(seed=0, classes=ALL_CLASSES)
        assert set(plan.classes) == set(ALL_CLASSES)

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown fault classes"):
            generate_plan(seed=0, classes=["drop", "gamma_ray"])

    def test_events_land_inside_horizon(self):
        horizon = 40_000
        plan = generate_plan(seed=11, horizon=horizon)
        for e in plan.events:
            assert horizon // 10 <= e.at < (horizon * 8) // 10

    def test_link_sets_respected(self):
        for links in LINK_SETS:
            plan = generate_plan(seed=5, classes=["drop"], links=links)
            assert all(e.links == links for e in plan.events)


class TestInjector:
    def _machine(self):
        machine = Machine(small_test_model(), tiebreak_seed=1)
        return machine, OS(machine)

    def test_arm_hardens_and_installs_reliable(self):
        machine, os_ = self._machine()
        plan = generate_plan(seed=2, classes=["drop", "evict"],
                             horizon=10_000)
        inj = FaultInjector(machine, os_, plan)
        inj.arm()
        assert all(type(u) is RecoveringLCU for u in machine.lcus)
        assert all(type(u) is RecoveringLRT for u in machine.lrts)
        assert inj.reliable is not None
        assert machine.net.fault_filter is not None

    def test_sched_only_plan_skips_reliable(self):
        machine, os_ = self._machine()
        plan = generate_plan(seed=2, classes=["preempt"], horizon=10_000)
        inj = FaultInjector(machine, os_, plan)
        inj.arm()
        assert inj.reliable is None
        assert machine.net.fault_filter is None

    def test_arming_twice_rejected(self):
        machine, os_ = self._machine()
        inj = FaultInjector(
            machine, os_, generate_plan(seed=2, classes=["evict"]),
        )
        inj.arm()
        with pytest.raises(AssertionError):
            inj.arm()

    def test_capacity_window_lifts(self):
        machine, os_ = self._machine()
        plan = FaultPlan(seed=1, events=(
            FaultEvent(kind="capacity", at=100, duration=200, limit=0),
        ))
        inj = FaultInjector(machine, os_, plan)
        inj.arm()
        machine.sim.run(until=150)
        assert all(
            lcu._forced_capacity == 0 for lcu in machine.lcus
        ), "window open: capacity clamped"
        machine.sim.run(until=1_000)
        assert all(
            lcu._forced_capacity is None for lcu in machine.lcus
        ), "window closed: capacity restored"

    def test_classify_taxonomy(self):
        machine, os_ = self._machine()
        plan = generate_plan(seed=2, classes=["evict"], horizon=10_000)
        inj = FaultInjector(machine, os_, plan)
        inj.arm()
        machine.sim.run(until=20_000)
        clean = inj.classify(violation=None)
        assert [o.outcome for o in clean] == ["recovered"]
        assert isinstance(clean[0], FaultOutcome)
        bad = inj.classify(violation="rw_exclusion: two writers")
        assert [o.outcome for o in bad] == ["violated"]
        assert "two writers" in bad[0].detail
