"""Deterministic schedule fuzzer for lock algorithms.

A :class:`FuzzCase` is a fully-seeded description of one randomized lock
program: how many threads over how many cores (oversubscription forces
preemption and migration), how many locks, the read/write mix, the
trylock rate, yield/sleep jitter, and an engine *tie-break seed* that
perturbs same-cycle event ordering inside the simulator
(:class:`repro.sim.engine.Simulator`).  Two runs of the same case are
bit-identical; varying only ``tiebreak_seed`` explores alternative
interleavings of the same program — the fuzzer's schedule-exploration
axis.

:func:`run_case` executes one case under a full
:class:`~repro.check.invariants.InvariantMonitor` (exclusion, queue
shape, oracle fairness, quiescence) and returns a
:class:`CheckOutcome`; a :class:`DeadlockError` from the scheduler is
reported as a ``no_lost_wakeup`` violation.  :func:`fuzz` drives many
generated cases; :func:`shrink` greedily minimizes a failing case
(fewer threads, iterations, locks; simpler mix) while it keeps failing,
and :func:`save_case`/:func:`load_case` serialize reproducers as JSON —
the format stored under ``tests/data/`` and replayed by the conformance
suite.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from typing import Any, Dict, List, Optional

from repro.check.invariants import (
    InvariantMonitor, InvariantViolation, LivenessViolation,
)
from repro.cpu import ops
from repro.cpu.machine import Machine
from repro.cpu.os_sched import CRASHED, DONE, OS, DeadlockError
from repro.lcu.lcu import ProtocolError
from repro.locks import get_algorithm  # package import populates the registry
from repro.params import MachineConfig, model_a, model_b, small_test_model
from repro.shards import shard_map

_MODELS = {"A": model_a, "B": model_b, "T": small_test_model}

#: reproducer format version (bump when FuzzCase fields change shape)
#: 2: optional ``faults`` fault-plan dict (format-1 docs still load)
#: 3: optional ``crash_policy`` crash victim-policy override
#: 4: ``fencing`` arm/sabotage switch for lease-reclaim fence tokens
#:    (gray-failure plans carry partition specs and zombie windows in
#:    ``faults``; ``fencing=False`` is the sabotage mode that lets a
#:    reclaimed zombie's stale operations through so the monitor's
#:    zombie-writer check must catch them)
FORMAT = 4

#: liveness bound (cycles) armed for crash-faulted cases: every waiter
#: must be granted within this many cycles of max(its request, the last
#: injected fault).  Sized for the worst recovery chain — a crashed
#: middle node wedging a queue costs two silent lease windows plus the
#: capped probe ladder plus the reclaim handshake (~150k cycles at the
#: default hardening knobs) — with slack, while still far below any
#: workload horizon, so a genuine post-fault hang cannot hide.
LIVENESS_BOUND = 250_000


def make_model(model: str, **overrides) -> MachineConfig:
    """Build a machine config by model letter (A, B, or the test model T).

    Accepts a synthetic ``cores`` override (``MachineConfig.cores`` is
    derived): the machine becomes a single chip with that many cores —
    the fuzzer uses it to force thread-over-core oversubscription."""
    try:
        factory = _MODELS[model]
    except KeyError:
        raise ValueError(
            f"unknown model {model!r}; known: {sorted(_MODELS)}"
        ) from None
    cores = overrides.pop("cores", None)
    if cores is not None:
        overrides["chips"] = 1
        overrides["cores_per_chip"] = cores
    return factory(**overrides)


@dataclasses.dataclass
class FuzzCase:
    """One fully-deterministic randomized lock program (JSON-friendly)."""

    algo: str
    model: str = "T"
    seed: int = 0
    threads: int = 4
    locks: int = 1
    iters: int = 8
    write_pct: int = 50
    trylock_pct: int = 0
    cs_cycles: int = 12
    think_cycles: int = 8
    yield_pct: int = 10
    cores: Optional[int] = None        # override: oversubscribe threads
    timeslice: Optional[int] = None    # override: force preemption
    lcu_entries: Optional[int] = None  # override: force entry exhaustion
    grant_timeout: Optional[int] = None  # override: force timer forwarding
    flt_entries: Optional[int] = None  # override: enable the FLT
    tiebreak_seed: Optional[int] = None
    faults: Optional[Dict[str, Any]] = None  # FaultPlan dict (repro.faults)
    #: crash victim policy override: None = auto by algorithm ("busy"
    #: for LCU-backed locks, "idle" for software ones), or one of
    #: "busy" / "idle" / "any" ("any" removes the gate entirely — the
    #: sabotage mode that crashes unrecoverable holders on purpose, used
    #: to prove the liveness oracle actually fires)
    crash_policy: Optional[str] = None
    #: arm fence tokens on lease reclaims (True, the default) or run the
    #: ``--no-fencing`` sabotage where a reclaimed zombie's stale
    #: operations succeed silently and only the invariant monitor's
    #: zombie-writer check stands between it and a torn critical section
    fencing: bool = True
    note: str = ""

    def describe(self) -> str:
        bits = [
            f"{self.algo}/{self.model}", f"seed={self.seed}",
            f"t={self.threads}", f"locks={self.locks}",
            f"iters={self.iters}", f"w={self.write_pct}%",
        ]
        if self.trylock_pct:
            bits.append(f"try={self.trylock_pct}%")
        if self.cores is not None:
            bits.append(f"cores={self.cores}")
        if self.timeslice is not None:
            bits.append(f"slice={self.timeslice}")
        if self.lcu_entries is not None:
            bits.append(f"lcu={self.lcu_entries}")
        if self.grant_timeout is not None:
            bits.append(f"gt={self.grant_timeout}")
        if self.flt_entries is not None:
            bits.append(f"flt={self.flt_entries}")
        if self.tiebreak_seed is not None:
            bits.append(f"tb={self.tiebreak_seed}")
        if self.faults is not None:
            kinds = sorted({e["kind"] for e in self.faults["events"]})
            bits.append(f"faults={'+'.join(kinds)}")
        if self.crash_policy is not None:
            bits.append(f"crash={self.crash_policy}")
        if not self.fencing:
            bits.append("no-fencing")
        return " ".join(bits)

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["format"] = FORMAT
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FuzzCase":
        d = dict(d)
        d.pop("format", None)
        d.pop("violation", None)  # reproducers embed it for humans only
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - fields
        if unknown:
            raise ValueError(f"unknown FuzzCase fields: {sorted(unknown)}")
        return cls(**d)


@dataclasses.dataclass
class CheckOutcome:
    """Verdict of running one :class:`FuzzCase`."""

    case: FuzzCase
    ok: bool
    violation: Optional[InvariantViolation] = None
    elapsed: int = 0
    total_cs: int = 0
    monitor_stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: FaultOutcome list when the case carried a fault plan
    fault_outcomes: Optional[List[Any]] = None
    #: injector counters per fault class (what was actually injected)
    fault_stats: Dict[str, int] = dataclasses.field(default_factory=dict)

    def summary(self) -> str:
        if self.ok:
            return (
                f"PASS {self.case.describe()} — {self.total_cs} CS in "
                f"{self.elapsed} cycles"
            )
        return f"FAIL {self.case.describe()}\n{self.violation.render()}"


# --------------------------------------------------------------------- #
# execution


def _crash_victim_gate(case, machine, os_, algo, monitor):
    """Build the crash victim-policy closure the injector consults
    before killing a core (``fn(core) -> bool``), or None for the
    unconditional "any" policy.

    The fault model distinguishes *recoverable* crashes (what lease
    revocation and LCU purge are built to absorb) from crashes the
    protocol calls unrecoverable by design:

    * ``"busy"`` (LCU-backed locks) — crash only when the core's LCU
      actually holds lock state, so the crash lands on a live queue and
      exercises recovery rather than killing an idle bystander.  For
      ``lcu_fb`` it additionally refuses while any prospective victim is
      inside the software ticket path: a dead ticket holder wedges the
      chain and nothing revokes software tickets (forcing one is the
      ``"any"`` sabotage scenario).
    * ``"idle"`` (software locks) — crash only cores whose threads are
      all outside any lock protocol: not holding, not waiting, and
      executing think-phase :class:`~repro.cpu.ops.Compute`.  Software
      locks have no revocation story at all; the op check closes the
      release-notify-before-unlock window where the oracle already
      shows a thread idle but its unlock stores have not run.

    The gate runs synchronously inside the injection event, so there is
    no window between the check and the kill."""
    policy = case.crash_policy
    if policy is None:
        policy = "busy" if algo.name in ("lcu", "lcu_fb") else "idle"
    if policy == "any":
        return None

    def victims(core):
        return [
            t for t in os_.threads
            if t.core == core and t.state not in (DONE, CRASHED)
        ]

    if policy == "busy":
        def gate(core: int) -> bool:
            homed = machine.lcus[core].homed_tids()
            if not homed:
                return False
            sw_active = getattr(algo, "_sw_active", None)
            if sw_active:
                dying = {t.tid for t in victims(core)} | homed
                if dying & sw_active:
                    return False
            return True
        return gate

    if policy != "idle":
        raise ValueError(f"unknown crash_policy {policy!r}")

    def gate(core: int) -> bool:
        for t in victims(core):
            for oracle in monitor.oracles.values():
                if t.tid in oracle.holders or t.tid in oracle.waiting:
                    return False
            if not isinstance(t.current_op, ops.Compute):
                return False
        return True
    return gate


def run_case(
    case: FuzzCase,
    span_tracer=None,
    max_cycles: int = 5_000_000,
) -> CheckOutcome:
    """Execute one case under full invariant monitoring.

    Never raises for a *detected* violation — that comes back as a
    failing :class:`CheckOutcome` so the fuzz/shrink loops can treat it
    as data.  Truly unexpected exceptions still propagate.
    """
    algo_cls = get_algorithm(case.algo)
    overrides: Dict[str, Any] = {}
    if case.cores is not None:
        overrides["cores"] = case.cores
    if case.timeslice is not None:
        overrides["timeslice"] = case.timeslice
    if case.lcu_entries is not None:
        overrides["lcu_ordinary_entries"] = case.lcu_entries
    if case.grant_timeout is not None:
        overrides["lcu_grant_timeout"] = case.grant_timeout
    if case.flt_entries is not None:
        overrides["flt_entries"] = case.flt_entries
    config = make_model(case.model, **overrides)

    machine = Machine(config, tiebreak_seed=case.tiebreak_seed)
    os_ = OS(machine)
    algo = algo_cls(machine)
    handles = [algo.make_lock() for _ in range(max(1, case.locks))]
    if span_tracer is not None:
        span_tracer.attach(machine)
    monitor = InvariantMonitor(machine, algo, span_tracer=span_tracer)
    monitor.os = os_  # excuse overtakes of stall-frozen threads
    monitor.attach()

    injector = None
    if case.faults is not None:
        # deferred import: repro.faults pulls in repro.check for outcome
        # verification, so the dependency must stay one-way at load time
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import CRASH_CLASSES, FaultPlan

        injector = FaultInjector(
            machine, os_, FaultPlan.from_dict(case.faults),
            fencing=case.fencing,
        )
        injector.arm()
        if any(k in CRASH_CLASSES for k in injector.plan.classes):
            # crash-stop faults in play: install the victim policy and
            # arm the liveness oracle — after the last fault every armed
            # request must be granted within LIVENESS_BOUND cycles, so a
            # silent post-crash hang becomes a structured violation
            injector.victim_gate = _crash_victim_gate(
                case, machine, os_, algo, monitor
            )
            monitor.liveness_bound = LIVENESS_BOUND
            monitor.last_fault_at_fn = lambda: injector.last_fault_at
            # monitor first (it reads oracle holder state the protocol
            # cleanup below does not touch), then the algorithm's own
            # robust-futex-style cleanup
            os_.crash_hooks.append(monitor.on_crash)
            os_.crash_hooks.append(algo.on_crash)

    per_thread_cs = [0] * case.threads

    def worker_factory(index: int):
        def worker(thread):
            rng = random.Random(case.seed * 1_000_003 + index)
            for _ in range(case.iters):
                handle = handles[rng.randrange(len(handles))]
                write = (
                    rng.random() * 100 < case.write_pct
                    if algo_cls.rw_support else True
                )
                use_try = (
                    algo_cls.trylock_support
                    and rng.random() * 100 < case.trylock_pct
                )
                if use_try:
                    got = yield from algo.try_acquire(
                        thread, handle, write, retries=4
                    )
                    if not got:
                        # abandoned: back off, then take it for real so
                        # every program terminates deterministically
                        yield ops.SleepFor(rng.randint(8, 64))
                        yield from algo.acquire(thread, handle, write)
                else:
                    yield from algo.acquire(thread, handle, write)
                if case.cs_cycles:
                    yield ops.Compute(rng.randint(1, case.cs_cycles))
                yield from algo.release(thread, handle, write)
                per_thread_cs[index] += 1
                if rng.random() * 100 < case.yield_pct:
                    yield ops.YieldCPU()
                elif case.think_cycles:
                    yield ops.Compute(rng.randint(1, case.think_cycles))

        return worker

    violation: Optional[InvariantViolation] = None
    elapsed = 0
    drained = True
    try:
        for i in range(case.threads):
            os_.spawn(worker_factory(i))
        elapsed = os_.run_all(max_cycles=max_cycles)
        if injector is not None:
            # let retransmissions / reclaim traffic settle before the
            # strict quiescence audit
            drained = injector.drain()
        monitor.finish()
    except InvariantViolation as v:
        violation = v
    except DeadlockError as d:
        if span_tracer is not None:
            span_tracer.flush_open()
        if injector is not None and injector.stats:
            # faults were actually injected: a wedged scheduler is the
            # liveness failure the crash-recovery machinery must prevent
            violation = LivenessViolation(
                f"scheduler wedged after faults: {d}",
                time=machine.sim.now,
                events=monitor.recent_events(),
            )
        else:
            violation = InvariantViolation(
                "no_lost_wakeup",
                f"scheduler wedged: {d}",
                time=machine.sim.now,
                events=monitor.recent_events(),
            )
    except (ProtocolError, AssertionError) as p:
        if span_tracer is not None:
            span_tracer.flush_open()
        violation = InvariantViolation(
            "protocol",
            f"{type(p).__name__}: {p}",
            time=machine.sim.now,
            events=monitor.recent_events(),
        )
    finally:
        stats = dict(monitor.stats)
        monitor.detach()
        if span_tracer is not None:
            span_tracer.detach()

    fault_outcomes = None
    fault_stats: Dict[str, int] = {}
    if injector is not None:
        failure = None
        if violation is not None:
            failure = f"{violation.invariant}: {violation.message}"
        elif not drained:
            failure = "reliable layer never drained"
        fault_outcomes = injector.classify(violation=failure, algorithm=algo)
        fault_stats = dict(injector.stats)

    return CheckOutcome(
        case=case,
        ok=violation is None,
        violation=violation,
        elapsed=elapsed or machine.sim.now,
        total_cs=sum(per_thread_cs),
        monitor_stats=stats,
        fault_outcomes=fault_outcomes,
        fault_stats=fault_stats,
    )


# --------------------------------------------------------------------- #
# generation


def generate_case(
    rng: random.Random,
    algo: str,
    model: str = "T",
    seed: int = 0,
    fault_pct: int = 25,
) -> FuzzCase:
    """Draw one randomized case.  Read/write mixes only for rw-capable
    algorithms (others run all-writer); trylocks only where supported;
    occasionally oversubscribes cores and shrinks the timeslice to force
    preemption and migration mid-queue.  With probability ``fault_pct``%
    the case carries a seeded fault plan (see :mod:`repro.faults`) — the
    fuzzer then co-explores fault timing with thread interleaving."""
    cls = get_algorithm(algo)
    threads = rng.randint(2, 8)
    cores = None
    timeslice = None
    if rng.random() < 0.4:
        # oversubscribe: more threads than cores, short slices → the OS
        # preempts and migrates threads while they sit in lock queues
        cores = rng.choice([2, 4])
        threads = max(threads, cores + rng.randint(1, 4))
        timeslice = rng.choice([400, 800, 1600])
    lcu_entries = grant_timeout = flt_entries = None
    if algo == "lcu":
        # stress the LCU's resource-exhaustion and timer paths: tiny
        # entry pools (nonblocking entries, overflow readers,
        # reservations), short grant timers (forwarding past absent
        # threads), and the Free Lock Table (parking/stealing)
        if rng.random() < 0.3:
            lcu_entries = rng.choice([2, 3])
        if rng.random() < 0.3:
            grant_timeout = rng.choice([100, 200, 500])
        if rng.random() < 0.2:
            flt_entries = rng.choice([2, 4])
    faults = None
    if rng.random() * 100 < fault_pct:
        from repro.faults.plan import (
            ALL_CLASSES, LCU_ONLY_CLASSES, MESSAGE_CLASSES, generate_plan,
        )

        # message/hardware faults only exercise LCU-backed locks; every
        # algorithm can face scheduling faults
        pool = (
            list(ALL_CLASSES) if algo in ("lcu", "lcu_fb")
            else [c for c in ALL_CLASSES
                  if c not in MESSAGE_CLASSES + LCU_ONLY_CLASSES]
        )
        classes = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        faults = generate_plan(
            seed=rng.randrange(1 << 30),
            classes=classes,
            horizon=rng.choice([40_000, 100_000, 250_000]),
            cores=cores if cores is not None else 4,
        ).to_dict()
    return FuzzCase(
        algo=algo,
        model=model,
        seed=seed,
        threads=threads,
        locks=rng.randint(1, 3),
        iters=rng.randint(3, 10),
        write_pct=(
            rng.choice([0, 10, 30, 50, 80, 100]) if cls.rw_support else 100
        ),
        trylock_pct=(
            rng.choice([0, 20, 50]) if cls.trylock_support else 0
        ),
        cs_cycles=rng.choice([0, 6, 20, 60]),
        think_cycles=rng.choice([0, 8, 40]),
        yield_pct=rng.choice([0, 10, 30]),
        cores=cores,
        timeslice=timeslice,
        lcu_entries=lcu_entries,
        grant_timeout=grant_timeout,
        flt_entries=flt_entries,
        tiebreak_seed=rng.randrange(1 << 16) if rng.random() < 0.7 else None,
        faults=faults,
    )


def fuzz(
    algo: str,
    model: str = "T",
    runs: int = 20,
    seed: int = 0,
    stop_on_failure: bool = True,
    span_tracer=None,
    progress=None,
) -> List[CheckOutcome]:
    """Run ``runs`` generated cases.  Deterministic in (algo, model,
    runs, seed).  Returns every outcome; with ``stop_on_failure`` the
    list ends at the first failing one."""
    master = random.Random(seed)
    outcomes: List[CheckOutcome] = []
    for i in range(runs):
        case = generate_case(master, algo, model, seed=master.randrange(1 << 30))
        outcome = run_case(case, span_tracer=span_tracer)
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
        if not outcome.ok and stop_on_failure:
            break
    return outcomes


def _shard_dict(algo: str, model: str, outcomes) -> Dict[str, Any]:
    return {
        "algo": algo,
        "model": model,
        "runs": len(outcomes),
        "total_cs": sum(o.total_cs for o in outcomes),
        "failing": [o.case.to_dict() for o in outcomes if not o.ok],
    }


def _fuzz_shard(spec, span_tracer=None) -> Dict[str, Any]:
    """Fuzz one (algo, model) combination and return a plain dict:
    ``CheckOutcome``/``InvariantViolation`` carry custom constructors
    that do not survive pool pickling, and the parent can
    deterministically re-run any failing case anyway."""
    algo, model, runs, seed = spec
    return _shard_dict(algo, model, fuzz(algo, model=model, runs=runs,
                                         seed=seed, span_tracer=span_tracer))


def fuzz_matrix(
    algos,
    models,
    runs: int = 10,
    seed: int = 0,
    workers: int = 0,
    progress=None,
    span_tracer=None,
) -> List[Dict[str, Any]]:
    """Fuzz every (algo, model) combination, optionally fanned out over
    a process pool (:func:`repro.shards.shard_map`).  Deterministic in
    its arguments AND the worker count: each combination is an
    independent fuzz stream keyed by ``(algo, model, runs, seed)``, and
    shards merge in spec order.  Failing cases come back as case dicts
    — replay one with ``run_case(FuzzCase.from_dict(d))``
    (bit-identical) to recover the full outcome and violation
    in-process.  A ``span_tracer`` runs the shards serially (spans
    cannot cross process boundaries)."""
    specs = [(a, m, runs, seed) for m in models for a in algos]
    shard = _fuzz_shard
    if span_tracer is not None:
        shard = functools.partial(_fuzz_shard, span_tracer=span_tracer)
        workers = 0
    shards = []
    for payload in shard_map(shard, specs, workers):
        shards.append(payload)
        if progress is not None:
            progress(payload)
    return shards


# --------------------------------------------------------------------- #
# shrinking


def _candidates(case: FuzzCase) -> List[FuzzCase]:
    """Single-step reductions of ``case``, most aggressive first."""
    out: List[FuzzCase] = []

    def variant(**changes) -> None:
        out.append(dataclasses.replace(case, **changes))

    if case.threads > 2:
        variant(threads=max(2, case.threads // 2))
        variant(threads=case.threads - 1)
    if case.iters > 1:
        variant(iters=max(1, case.iters // 2))
        variant(iters=case.iters - 1)
    if case.locks > 1:
        variant(locks=1)
    if case.trylock_pct:
        variant(trylock_pct=0)
    if case.yield_pct:
        variant(yield_pct=0)
    if case.think_cycles:
        variant(think_cycles=0)
    if case.cs_cycles:
        variant(cs_cycles=0)
    if case.crash_policy is not None:
        variant(crash_policy=None)
    if not case.fencing:
        # does the failure need the sabotage, or is it a real bug that
        # survives with fences armed?
        variant(fencing=True)
    if case.faults is not None:
        variant(faults=None)
        kinds = sorted({e["kind"] for e in case.faults["events"]})
        if len(kinds) > 1:
            for kind in kinds:
                kept = [
                    e for e in case.faults["events"] if e["kind"] != kind
                ]
                variant(faults={**case.faults, "events": kept})
    if case.timeslice is not None:
        variant(timeslice=None, cores=None)
    elif case.cores is not None:
        variant(cores=None)
    if case.flt_entries is not None:
        variant(flt_entries=None)
    if case.grant_timeout is not None:
        variant(grant_timeout=None)
    if case.lcu_entries is not None:
        variant(lcu_entries=None)
    if case.write_pct not in (0, 100):
        variant(write_pct=100)
        variant(write_pct=0)
    if case.tiebreak_seed is not None:
        variant(tiebreak_seed=None)
    return out


def shrink(
    case: FuzzCase, max_steps: int = 200, progress=None
) -> CheckOutcome:
    """Greedily minimize a failing case: repeatedly apply the first
    single-field reduction that still fails, until none does (or the
    step budget runs out).  Returns the failing outcome of the smallest
    case found; raises ``ValueError`` if ``case`` does not fail."""
    outcome = run_case(case)
    if outcome.ok:
        raise ValueError(f"cannot shrink a passing case: {case.describe()}")
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(outcome.case):
            steps += 1
            trial = run_case(candidate)
            if not trial.ok:
                outcome = trial
                if progress is not None:
                    progress(trial)
                improved = True
                break
            if steps >= max_steps:
                break
    return outcome


# --------------------------------------------------------------------- #
# reproducer serialization


def save_case(
    outcome_or_case, path: str, note: Optional[str] = None
) -> Dict[str, Any]:
    """Write a JSON reproducer.  Accepts a failing :class:`CheckOutcome`
    (the violation summary is embedded for human readers) or a bare
    :class:`FuzzCase`; returns the document written."""
    if isinstance(outcome_or_case, CheckOutcome):
        case = outcome_or_case.case
        violation = outcome_or_case.violation
    else:
        case = outcome_or_case
        violation = None
    if note is not None:
        case = dataclasses.replace(case, note=note)
    doc = case.to_dict()
    if violation is not None:
        doc["violation"] = violation.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_case(path: str) -> FuzzCase:
    """Read a reproducer JSON back into a runnable :class:`FuzzCase`."""
    with open(path) as fh:
        return FuzzCase.from_dict(json.load(fh))
