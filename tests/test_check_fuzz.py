"""The ``repro.check`` fuzzer and its reproducer corpus.

``tests/data/check_repro_*.json`` are minimized fuzz cases capturing the
LCU protocol's historical edge scenarios (FLT mode-switch handover,
grant-timer forwarding, entry-pool exhaustion, overflow readers).  Each
is replayed through the full invariant monitor and must PASS — they are
regression reproducers for bugs already fixed, and tripwires for the
protocol paths they exercise.  The rest of the file covers the fuzzer
machinery itself: determinism, serialization round-trips and shrinking.
"""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from repro.check import (
    CheckOutcome,
    FuzzCase,
    InvariantViolation,
    fuzz,
    load_case,
    run_case,
    save_case,
    shrink,
)

pytestmark = pytest.mark.check

DATA = Path(__file__).parent / "data"

# reproducer file -> the LCU/LRT stat its scenario must exercise; a
# corpus case that stops hitting its path is a silent coverage loss.
CORPUS = {
    "check_repro_flt_mode_switch.json": "flt_parks",
    "check_repro_grant_timeout.json": "timeouts",
    "check_repro_entry_exhaustion.json": "alloc_failures",
    "check_repro_overflow_readers.json": "overflow_grants",
}


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


def hw_stats(machine):
    agg = Counter()
    for lcu in machine.lcus:
        agg.update(lcu.stats)
    for lrt in machine.lrts:
        agg.update(lrt.stats)
    return agg


@pytest.mark.parametrize("fname", sorted(CORPUS))
def test_corpus_replays_clean(fname, machine_spy):
    case = load_case(DATA / fname)
    outcome = run_case(case)
    assert outcome.ok, outcome.summary()
    assert outcome.total_cs == case.threads * case.iters
    stat = CORPUS[fname]
    assert hw_stats(machine_spy[-1])[stat] > 0, (
        f"{fname} no longer exercises '{stat}' — the reproducer has "
        f"drifted away from the scenario it was minimized for"
    )


def test_corpus_notes_explain_the_scenario():
    for fname in CORPUS:
        case = load_case(DATA / fname)
        assert len(case.note) > 40, f"{fname} lacks a human-readable note"


def test_replay_is_deterministic():
    case = load_case(DATA / "check_repro_grant_timeout.json")
    a, b = run_case(case), run_case(case)
    assert (a.elapsed, a.total_cs, a.monitor_stats) == (
        b.elapsed, b.total_cs, b.monitor_stats,
    )


def _audit_every_event(monkeypatch):
    """The reference audit: every Machine built from here on audits its
    LCU/LRT queues after every engine event, through
    ``Simulator.dispatch``, and the monitor's own audit after each
    lock-protocol delivery is switched off."""
    import repro.cpu.machine as mach
    from repro.check.invariants import InvariantMonitor, audit_lcu_queues

    orig = mach.Machine.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)

        def dispatch(now, fn, machine=self):
            fn()
            problems = audit_lcu_queues(machine)
            if problems:
                raise InvariantViolation("queue_shape", problems[0],
                                         time=now)

        self.sim.dispatch = dispatch

    monkeypatch.setattr(mach.Machine, "__init__", init)
    monkeypatch.setattr(InvariantMonitor, "_on_send",
                        lambda self, src, dst, payload: None)


def _case_verdict(case):
    v = run_case(case).violation
    return None if v is None else (v.invariant, v.message, v.time)


def _cell_verdict(algo, model, fault, seed):
    from repro.faults.nemesis import run_cell

    cell = run_cell(algo, model, fault, seed)
    return cell.outcome, cell.detail, cell.elapsed


@pytest.mark.parametrize("fname", sorted(DATA.glob("check_repro_*.json")),
                         ids=lambda p: p.stem)
def test_delivery_audit_matches_every_event_audit_on_corpus(fname):
    """Auditing after each lock-protocol message finds the same first
    problem at the same cycle as auditing after every engine event."""
    case = load_case(fname)
    delivery = _case_verdict(case)
    with pytest.MonkeyPatch.context() as mp:
        _audit_every_event(mp)
        assert _case_verdict(case) == delivery


@pytest.mark.faults
@pytest.mark.parametrize("cell", [
    ("lcu", "A", "evict", 0),           # clean, with forced evictions
    ("lcu", "A", "zombie_core", 32),    # a queue cycle at 107,154
], ids=lambda c: "/".join(map(str, c)))
def test_delivery_audit_matches_every_event_audit_on_nemesis(cell):
    delivery = _cell_verdict(*cell)
    with pytest.MonkeyPatch.context() as mp:
        _audit_every_event(mp)
        assert _cell_verdict(*cell) == delivery


def test_save_load_round_trip(tmp_path):
    case = FuzzCase(
        algo="lcu", model="B", seed=123, threads=5, locks=2, iters=7,
        write_pct=30, trylock_pct=20, cores=4, timeslice=800,
        lcu_entries=2, grant_timeout=200, flt_entries=4,
        tiebreak_seed=99, note="round trip",
    )
    path = tmp_path / "case.json"
    doc = save_case(case, path)
    assert doc["format"] == 4
    assert load_case(path) == case


def test_save_failing_outcome_embeds_violation(tmp_path):
    case = FuzzCase(algo="lcu", seed=1)
    violation = InvariantViolation(
        "rw_exclusion", "two writers", time=17,
        details={"handle": 3}, events=["w1 acquire", "w2 acquire"],
    )
    outcome = CheckOutcome(case=case, ok=False, violation=violation)
    path = tmp_path / "repro.json"
    doc = save_case(outcome, path, note="minimized from: something bigger")
    assert doc["violation"]["invariant"] == "rw_exclusion"
    assert doc["violation"]["time"] == 17
    # the embedded violation is documentation: loading ignores it and the
    # note survives, so the reproducer stays self-describing
    loaded = load_case(path)
    assert loaded == dataclasses.replace(
        case, note="minimized from: something bigger"
    )


def test_load_rejects_unknown_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"algo": "lcu", "warp_factor": 9}')
    with pytest.raises(ValueError, match="warp_factor"):
        load_case(path)


def test_fuzz_is_deterministic():
    a = fuzz("ticket", model="T", runs=4, seed=7)
    b = fuzz("ticket", model="T", runs=4, seed=7)
    assert [o.case for o in a] == [o.case for o in b]
    assert [(o.ok, o.elapsed, o.total_cs) for o in a] == [
        (o.ok, o.elapsed, o.total_cs) for o in b
    ]


def test_fuzz_explores_distinct_cases():
    outcomes = fuzz("mcs", model="T", runs=6, seed=11)
    assert all(o.ok for o in outcomes), next(
        o.summary() for o in outcomes if not o.ok
    )
    assert len({o.case.describe() for o in outcomes}) > 1


def test_shrink_refuses_passing_case():
    case = FuzzCase(algo="tas", model="T", seed=2, threads=2, iters=2)
    with pytest.raises(ValueError, match="passing"):
        shrink(case)


def test_shrink_minimizes_an_injected_failure(monkeypatch):
    """End-to-end minimization: break the hardware, fuzz until it shows,
    shrink, and check the reproducer that comes out is both smaller and
    still failing — the exact workflow ``check --minimize`` automates."""
    from repro.lcu.lrt import LockReservationTable

    orig = LockReservationTable._on_request

    def drop_every_fifth(self, m):
        self._drops = getattr(self, "_drops", 0) + 1
        if self._drops % 5 == 0:
            self.stats["requests"] += 1
            return  # swallow the request: the waiter never gets an answer
        return orig(self, m)

    monkeypatch.setattr(LockReservationTable, "_on_request", drop_every_fifth)
    case = FuzzCase(
        algo="lcu", model="T", seed=6, threads=6, iters=6, write_pct=60,
    )
    outcome = run_case(case)
    assert not outcome.ok
    assert outcome.violation.invariant in ("no_lost_wakeup", "quiescence")

    small = shrink(outcome.case)
    assert not small.ok
    assert small.case.threads <= case.threads
    assert small.case.iters <= case.iters
    assert small.case.describe() != case.describe() or small.case == case
