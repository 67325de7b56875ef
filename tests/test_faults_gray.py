"""Gray failures: asymmetric partitions, zombie cores, slow cores, fences.

Crash-stop recovery (PR 7, test_faults_crash.py) assumes a dead core
stays dead.  A *gray* failure breaks that assumption: a zombie core is
stalled past its lease but still alive and resumes later; a slow core
keeps answering, just late; an asymmetric partition blackholes one
direction of a link while the reverse path stays clean.  Coverage here
mirrors the crash suite's three layers:

* OS / machine choreography — ``stall_core`` composes with
  ``crash_core`` (a core stalled at crash time dies exactly once and
  the pending unfreeze cannot resurrect it) and ``set_core_slowdown``
  keeps the core executing.
* The fencing proof — with fencing armed every gray cell recovers;
  with ``fencing=False`` (the ``--no-fencing`` sabotage) the healed
  zombie's stale hold is never rejected and the monitor's
  ``zombie_writer`` check provably fires, PR 7-style.  The minimized
  sabotage run is pinned as a corpus reproducer.
* The failure detector — a zombie (heartbeats blackholed) is reclaimed
  by the lease machinery, while a slow core (heartbeats late but
  flowing) is probed and waited out: zero reclaims.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import Machine, OS, small_test_model
from repro.check.fuzz import FuzzCase, load_case, run_case
from repro.cpu import ops
from repro.cpu.os_sched import CRASHED, DONE
from repro.faults.nemesis import (
    DEFAULT_ALGOS,
    DEFAULT_MODELS,
    _cell_specs,
    classes_for,
    run_cell,
    run_matrix,
)
from repro.faults.plan import ALL_CLASSES, GRAY_CLASSES

pytestmark = pytest.mark.faults

DATA = Path(__file__).parent / "data"


@pytest.fixture
def m():
    return Machine(small_test_model(), tiebreak_seed=1)


@pytest.fixture
def machine_spy(monkeypatch):
    """Capture every Machine a replay builds so tests can inspect the
    hardware stats afterwards."""
    import repro.cpu.machine as mach

    captured = []
    orig = mach.Machine.__init__

    def spy(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        captured.append(self)

    monkeypatch.setattr(mach.Machine, "__init__", spy)
    return captured


def lrt_stats(machine):
    agg = {}
    for lrt in machine.lrts:
        for k, v in lrt.stats.items():
            agg[k] = agg.get(k, 0) + v
    return agg


class TestStallCrashComposition:
    """Satellite regression: ``zombie_core`` (stall) must compose with
    PR 7 crash bookkeeping — stall → crash → restart, in that order."""

    def test_stalled_core_crashes_exactly_once(self, m):
        os_ = OS(m)
        reported = []
        os_.crash_hooks.append(lambda t: reported.append(t.tid))

        def prog(thread):
            yield ops.Compute(10_000)

        threads = [os_.spawn(prog) for _ in range(m.config.cores)]
        m.sim.at(300, lambda: os_.stall_core(0, 5_000))
        m.sim.at(800, lambda: os_.crash_core(0))      # mid-stall
        m.sim.at(1_200, lambda: os_.restart_core(0))  # before stall end
        os_.run_all()
        victims = [t for t in threads if t.state == CRASHED]
        assert len(victims) == 1, "one thread was on the stalled core"
        assert reported == [victims[0].tid], (
            "crash hooks must fire exactly once for the stalled victim"
        )
        assert all(t.state == DONE for t in threads if t is not victims[0])

    def test_stall_unfreeze_cannot_resurrect_a_crash_victim(self, m):
        """The stall schedules an unfreeze at window end; a crash during
        the window stales it (epoch bump).  When the window closes the
        victim must still be CRASHED — frozen state must not leak back
        into RUNNING."""
        os_ = OS(m)

        def prog(thread):
            yield ops.Compute(10_000)

        threads = [os_.spawn(prog) for _ in range(m.config.cores)]
        victim = {}
        m.sim.at(300, lambda: os_.stall_core(0, 2_000))

        def crash():
            victim["t"] = next(t for t in threads if t.core == 0)
            os_.crash_core(0)

        m.sim.at(800, crash)

        def after_window():
            assert victim["t"].state == CRASHED
            assert not victim["t"].frozen

        m.sim.at(2_400, after_window)  # past the stall's unfreeze point
        os_.run_all()
        assert victim["t"].state == CRASHED
        assert os_.crashes == 1

    def test_slowdown_keeps_the_core_executing(self, m):
        os_ = OS(m)
        done_at = {}

        def prog(thread):
            yield ops.Compute(1_000)
            done_at[thread.tid] = m.sim.now

        t = os_.spawn(prog)
        os_.set_core_slowdown(0, 3.0)
        os_.run_all()
        assert t.state == DONE, "a slow core still finishes its work"
        assert done_at[t.tid] >= 3_000, "compute must stretch by the factor"


class TestGrayCells:
    def test_gray_classes_are_universal(self):
        assert set(GRAY_CLASSES) <= set(ALL_CLASSES)
        for algo in ("lcu", "lcu_fb", "mcs", "clh", "ticket", "mrsw"):
            assert set(GRAY_CLASSES) <= set(classes_for(algo, None))

    def test_matrix_axis_meets_the_growth_bar(self):
        specs = _cell_specs(DEFAULT_ALGOS, DEFAULT_MODELS, None,
                            0, 6, 30, 12_000, True)
        assert len(specs) >= 132, (
            "the gray classes must grow the default matrix to >= 132 "
            f"cells (got {len(specs)})"
        )

    @pytest.mark.parametrize("algo", ["lcu", "mcs"])
    @pytest.mark.parametrize("fault", list(GRAY_CLASSES))
    def test_gray_cells_recover(self, algo, fault):
        cell = run_cell(algo, "A", fault, seed=0)
        assert cell.outcome in ("recovered", "degraded"), cell.detail
        if algo == "lcu":
            assert cell.injected >= 1, "the fault must actually land"


class TestFailureDetector:
    def test_zombie_holder_is_reclaimed_and_fenced(self, machine_spy):
        """A zombie stalls past its lease with heartbeats blackholed:
        suspicion climbs, the watchdog reclaims the lease, and the
        healed zombie's stale release is answered with a
        FencedOperation instead of silent success."""
        cell = run_cell("lcu", "A", "zombie_core", seed=0)
        assert cell.outcome == "recovered", cell.detail
        stats = lrt_stats(machine_spy[-1])
        assert stats.get("reclaims_lease", 0) >= 1, (
            "the lease machinery must revoke the zombie's hold"
        )
        fenced = sum(
            lcu.stats.get("fenced_ops", 0) for lcu in machine_spy[-1].lcus
        )
        assert fenced >= 1, "the healed zombie must hit the fence"

    def test_slow_core_is_probed_not_reclaimed(self, machine_spy):
        """A slow core keeps executing and its heartbeats keep flowing
        (late, not lost): the suspicion-level detector must wait it out
        — a live holder is never reclaimed for being slow."""
        cell = run_cell("lcu", "A", "slow_core", seed=0)
        assert cell.outcome == "recovered", cell.detail
        stats = lrt_stats(machine_spy[-1])
        assert stats.get("reclaims", 0) == 0, (
            f"slow-but-alive core was reclaimed: {stats}"
        )


@pytest.fixture
def monitor_spy(monkeypatch):
    """Record what every InvariantMonitor a run attaches does with its
    ``lrt`` events: each era close (and whether the closed address has
    a lock record) and how many ``timeout``/``evict`` events arrived."""
    from repro.check.invariants import InvariantMonitor

    log = {"monitors": [], "era_hits": [], "credits_due": 0}
    attach = InvariantMonitor.attach
    era_closed = InvariantMonitor._era_closed
    on_hw_event = InvariantMonitor._on_hw_event

    def spy_attach(self):
        log["monitors"].append(self)
        return attach(self)

    def spy_era_closed(self, addr, *args, **kwargs):
        log["era_hits"].append(addr in self.oracles)
        return era_closed(self, addr, *args, **kwargs)

    def spy_on_hw_event(self, event, addr, tid, write):
        if event in ("timeout", "evict"):
            log["credits_due"] += 1
        return on_hw_event(self, event, addr, tid, write)

    monkeypatch.setattr(InvariantMonitor, "attach", spy_attach)
    monkeypatch.setattr(InvariantMonitor, "_era_closed", spy_era_closed)
    monkeypatch.setattr(InvariantMonitor, "_on_hw_event", spy_on_hw_event)
    return log


class TestOneRecordPerLock:
    """``lcu_fb``'s handle is a tuple, but its lock id is the LCU
    address the ``lrt`` events carry: an era close must reach the
    closed lock's record, and a grant timeout or eviction must widen
    the overtake budget of the one lock it names, not of every lock."""

    @pytest.mark.parametrize("fault", ["zombie_core", "crash_core", "evict"])
    def test_lcu_fb_lrt_events_reach_their_lock(self, monitor_spy, fault):
        cell = run_cell("lcu_fb", "A", fault, seed=3)
        assert cell.outcome != "violated", cell.detail
        (monitor,) = monitor_spy["monitors"]
        assert len(monitor.oracles) == 2
        assert monitor_spy["era_hits"], "the cell must close an era"
        assert all(monitor_spy["era_hits"])
        assert monitor_spy["credits_due"] > 0
        assert sum(
            o.timeout_credits for o in monitor.oracles.values()
        ) == monitor_spy["credits_due"]


class TestFencingSabotage:
    """PR 7-style proof that the fences earn their keep: the same
    zombie plan recovers with fencing armed and provably violates the
    zombie-writer invariant with fencing disarmed."""

    def test_sabotage_trips_the_zombie_writer_check(self):
        cell = run_cell("lcu", "A", "zombie_core", seed=0, fencing=False)
        assert cell.outcome == "violated"
        assert "zombie_writer" in cell.detail, cell.detail

    def test_fencing_prevents_the_violation(self):
        cell = run_cell("lcu", "A", "zombie_core", seed=0, fencing=True)
        assert cell.outcome == "recovered", cell.detail

    def test_sabotage_violation_is_deterministic(self):
        a = run_cell("lcu", "A", "zombie_core", seed=0, fencing=False)
        b = run_cell("lcu", "A", "zombie_core", seed=0, fencing=False)
        assert a.detail == b.detail
        assert a.elapsed == b.elapsed

    def test_unfenced_zombie_corpus_case_still_violates(self):
        """The minimized sabotage run is pinned as a corpus reproducer:
        it must keep violating ``zombie_writer`` (and carry the
        sabotage flag), or the fence proof has silently drifted."""
        case = load_case(DATA / "check_repro_unfenced_zombie.json")
        assert case.fencing is False
        assert len(case.note) > 40
        outcome = run_case(case)
        assert not outcome.ok
        assert outcome.violation.invariant == "zombie_writer"

    def test_shrinker_probes_the_sabotage_axis(self):
        """Format-4 shrinking: for a no-fencing failure the shrinker
        must try re-arming the fences — the reduction that tells a
        sabotage-only failure from a real bug."""
        from repro.check.fuzz import _candidates

        case = load_case(DATA / "check_repro_unfenced_zombie.json")
        variants = _candidates(case)
        assert any(v.fencing for v in variants), (
            "no fencing=True candidate proposed for a no-fencing case"
        )
        # and never the other way around: armed cases stay armed
        armed = dataclasses.replace(case, fencing=True)
        assert all(v.fencing for v in _candidates(armed))


class TestGrayMatrixWorkers:
    def test_gray_worker_pool_report_is_byte_identical_to_serial(self):
        """The CI gray smoke gate in test form: two new-class cells,
        serial vs pooled, byte-identical reports."""
        kwargs = dict(
            algos=("lcu",), models=("A",),
            classes=("zombie_core", "partition_links"), seed=0,
        )
        serial = run_matrix(workers=0, **kwargs)
        pooled = run_matrix(workers=2, **kwargs)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(pooled.to_dict(), sort_keys=True)
        assert serial.ok, [c.detail for c in serial.violated()]
        assert len(serial.cells) == 2
