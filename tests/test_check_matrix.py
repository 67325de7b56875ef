"""Cross-algorithm conformance matrix (the ``repro.check`` oracle tests).

Every registered lock algorithm — software baselines and hardware units
alike — is run through the schedule fuzzer under the full invariant
monitor (exclusion tracker, structural queue audit, reference oracle,
quiescence) on both paper machine models.  A new algorithm added to the
registry is picked up automatically and has to pass the same bar.
"""

import pytest

from repro.check import (
    ExclusionTracker,
    FuzzCase,
    InvariantMonitor,
    InvariantViolation,
    RWLockOracle,
    fuzz,
    run_case,
    shrink,
)
from repro.locks import all_algorithms, get_algorithm

pytestmark = pytest.mark.check

ALGOS = sorted(all_algorithms())
MODELS = ["A", "B"]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("algo", ALGOS)
def test_conformance(algo, model):
    outcomes = fuzz(algo, model=model, runs=3, seed=41)
    bad = [o for o in outcomes if not o.ok]
    assert not bad, bad[0].summary()
    assert sum(o.total_cs for o in outcomes) > 0


def test_registry_covers_known_algorithms():
    """The matrix really is cross-algorithm: the paper's Figure 1
    baselines must all be registered (a rename would silently shrink
    the matrix otherwise)."""
    expected = {
        "tas", "tatas", "ticket", "mcs", "mrsw", "pthread", "lcu", "ssb",
        "clh", "hbo", "snzi", "mao", "tpmcs",
    }
    assert expected <= set(ALGOS)


def test_rw_algorithms_share_read_sections():
    """Read-heavy fuzz cases on rw-capable locks must actually exhibit
    reader sharing — otherwise the exclusion check is vacuous."""
    case = FuzzCase(
        algo="lcu", model="T", seed=7, threads=6, iters=8, write_pct=10,
        cs_cycles=40,
    )
    outcome = run_case(case)
    assert outcome.ok, outcome.summary()
    assert outcome.total_cs == 6 * 8


def test_oversubscribed_case_completes():
    """More threads than cores with a short timeslice: preemption and
    migration mid-queue must not lose wakeups."""
    case = FuzzCase(
        algo="lcu", model="T", seed=3, threads=8, iters=5, write_pct=50,
        cores=2, timeslice=800,
    )
    outcome = run_case(case)
    assert outcome.ok, outcome.summary()


def test_tiebreak_seed_changes_schedule_not_verdict():
    """Tie-break perturbation explores different interleavings (same
    program, different elapsed time is the common signature) and every
    one of them must pass."""
    elapsed = set()
    for tb in (None, 1, 2, 3, 4, 5, 6, 7):
        case = FuzzCase(
            algo="lcu", model="T", seed=5, threads=5, iters=6,
            write_pct=30, tiebreak_seed=tb,
        )
        outcome = run_case(case)
        assert outcome.ok, f"tb={tb}: {outcome.summary()}"
        elapsed.add(outcome.elapsed)
    assert len(elapsed) > 1, "tie-break seeds never changed the schedule"


def test_run_case_is_deterministic():
    case = FuzzCase(
        algo="lcu", model="T", seed=9, threads=5, iters=6, write_pct=50,
        trylock_pct=30, tiebreak_seed=12,
    )
    a, b = run_case(case), run_case(case)
    assert (a.ok, a.elapsed, a.total_cs) == (b.ok, b.elapsed, b.total_cs)
    assert a.monitor_stats == b.monitor_stats


# --------------------------------------------------------------------- #
# the monitor and oracle must actually *reject* broken behaviour


def test_monitor_catches_corrupted_queue_link(monkeypatch):
    """Sabotage: during a queue transfer, point the released entry's
    ``next`` link back at itself.  The monitor (structural audit or the
    protocol's own defensive checks) must flag the run; shrinking must
    then produce a smaller failing case."""
    from repro.lcu.lcu import LockControlUnit
    from repro.lcu.messages import Who

    orig = LockControlUnit._transfer

    def corrupt(self, e):
        if e.next is not None:
            e.next = Who(e.tid, self.lcu_id, e.write)
        return orig(self, e)

    monkeypatch.setattr(LockControlUnit, "_transfer", corrupt)
    case = FuzzCase(
        algo="lcu", model="T", seed=3, threads=4, iters=6, write_pct=50,
    )
    outcome = run_case(case)
    assert not outcome.ok
    assert outcome.violation.invariant in ("queue_shape", "protocol")
    assert outcome.violation.events, "violation carries no trace window"

    small = shrink(outcome.case)
    assert not small.ok
    assert small.case.threads <= case.threads
    assert small.case.iters <= case.iters


def test_oracle_rejects_exclusion_breach():
    oracle = RWLockOracle()
    oracle.request(1, True, 0)
    oracle.request(2, True, 0)
    oracle.acquire(1, True, 5)
    oracle.acquire(2, True, 6)      # second writer while first holds
    assert oracle.violations
    assert "while held" in oracle.violations[0]


def test_oracle_rejects_reader_during_write():
    oracle = RWLockOracle()
    oracle.request(1, True, 0)
    oracle.acquire(1, True, 1)
    oracle.request(2, False, 2)
    oracle.acquire(2, False, 3)
    assert any("during a write hold" in v for v in oracle.violations)


def test_oracle_accepts_reader_sharing():
    oracle = RWLockOracle()
    for tid in (1, 2, 3):
        oracle.request(tid, False, 0)
    for tid in (1, 2, 3):
        oracle.acquire(tid, False, 1)
    for tid in (1, 2, 3):
        oracle.release(tid, False, 2)
    assert not oracle.violations
    assert not oracle.end_state_problems()


def test_oracle_bounded_overtake():
    """A fair lock may not starve an early requester indefinitely."""
    oracle = RWLockOracle(fair=True, overtake_bound=3)
    oracle.request(99, True, 0)     # the starved waiter
    for i, tid in enumerate(range(100, 110)):
        oracle.request(tid, True, i + 1)
        oracle.acquire(tid, True, i + 2)
        oracle.release(tid, True, i + 3)
        if oracle.violations:
            break
    assert any("overtaken" in v for v in oracle.violations)


def test_oracle_timeout_credits_widen_bound():
    """Grant-timer forwarding legitimately skips absent waiters: each
    reported timeout buys one extra overtake before the oracle objects."""
    strict = RWLockOracle(fair=True, overtake_bound=2)
    credited = RWLockOracle(fair=True, overtake_bound=2)
    for oracle in (strict, credited):
        oracle.request(99, True, 0)
    credited.grant_timeout()
    for oracle in (strict, credited):
        for i, tid in enumerate(range(100, 103)):
            oracle.request(tid, True, i + 1)
            oracle.acquire(tid, True, i + 2)
            oracle.release(tid, True, i + 3)
    assert strict.violations
    assert not credited.violations


def test_oracle_excused_waiters_not_overtaken():
    """A waiter frozen by an injected core stall cannot consume a grant:
    passing it is the designed behaviour, so excused tids accrue no
    overtake count at all (unlike timeout credits, which only widen the
    bound by one per skip)."""
    strict = RWLockOracle(fair=True, overtake_bound=2)
    excusing = RWLockOracle(fair=True, overtake_bound=2)
    for oracle in (strict, excusing):
        oracle.request(99, True, 0)
    for i, tid in enumerate(range(100, 110)):
        for oracle in (strict, excusing):
            oracle.request(tid, True, i + 1)
        strict.acquire(tid, True, i + 2)
        excusing.acquire(tid, True, i + 2, excused={99})
        for oracle in (strict, excusing):
            oracle.release(tid, True, i + 3)
        if strict.violations:
            break
    assert strict.violations
    assert not excusing.violations
    assert excusing.overtaken.get(99, 0) == 0


def test_oracle_flags_lost_wakeup_at_end():
    oracle = RWLockOracle()
    oracle.request(1, True, 0)
    problems = oracle.end_state_problems()
    assert any("still waiting" in p for p in problems)


def test_exclusion_tracker_counts_and_violations():
    t = ExclusionTracker()
    t.enter(False)
    t.enter(False)
    assert t.max_readers == 2
    t.enter(True)                   # writer barges into readers
    assert t.violations
    t.exit(True)
    t.exit(False)
    t.exit(False)
    assert t.total == 3
    with pytest.raises(AssertionError):
        t.assert_clean()


def test_monitor_violation_is_structured():
    """InvariantViolation carries invariant name, time, details and the
    recent-event window, and serializes for reproducer JSONs."""
    v = InvariantViolation(
        "rw_exclusion", "boom", time=42, details={"handle": 7},
        events=["e1", "e2"],
    )
    assert "rw_exclusion" in str(v) and "cycle 42" in str(v)
    d = v.to_dict()
    assert d["invariant"] == "rw_exclusion"
    assert d["time"] == 42
    assert d["events"] == ["e1", "e2"]


def test_observed_wrappers_emit_lifecycle_events(machine):
    seen = []
    algo = get_algorithm("tas")(machine)
    h = algo.make_lock()
    machine.sim.bus.lock.append(
        lambda ev, lock, tid, w: seen.append((ev, lock))
    )

    from repro.cpu.os_sched import OS
    os_ = OS(machine)

    def prog(thread):
        yield from algo.acquire(thread, h, True)
        yield from algo.release(thread, h, True)
        ok = yield from algo.try_acquire(thread, h, True)
        assert ok
        yield from algo.release(thread, h, True)

    os_.spawn(lambda t: prog(t))
    os_.run_all()
    assert [ev for ev, _lock in seen] == [
        "request", "acquire", "release", "request", "acquire", "release",
    ]
    # every event carries the one table of the lock, left empty
    (table,) = {id(lock): lock for _ev, lock in seen}.values()
    assert table.id == algo.lock_id(h) and table.handle == h
    assert table.waiting == {} and table.holders == {}


def test_cli_check_matrix_smoke(capsys):
    """``python -m repro check --all --runs 5`` — the tier-1 smoke the
    CI baseline (BENCH_check.json) mirrors — must exit 0."""
    from repro.__main__ import main

    rc = main(["check", "--all", "--runs", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    for algo in ALGOS:
        assert algo in out
    assert "FAIL" not in out
