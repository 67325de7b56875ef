"""Differential equivalence: the engine's event store vs a heapq oracle.

The engine files every event under one unique integer key in a heapq
of ints beside a key -> callback dict (`repro.sim.engine.Simulator`)
and dispatches both event orders — stable FIFO and seeded
(``tiebreak_seed``) — through one loop, `Simulator.run`.  The entire reproduction's determinism contract rides
on one property: *that loop dispatches exactly the same events at
exactly the same cycles in exactly the same order as a plain heapq of
``(cycle, key, seq, fn)`` tuples*, the store the engine started from.
That heap lives on here as the oracle, :class:`HeapSimulator`, and these
tests prove the property two ways:

* differentially — run seeded full-stack workloads (locks x models x
  fault plans, stable and seeded order) twice, once per store,
  capturing every dispatch through ``Simulator.dispatch``, and demand
  bit-identical event sequences, final clocks and results;
* by property — drive ``Simulator.at``/``run`` with seeded random
  push/dispatch interleavings against sorted-order oracles.

Everything here carries the ``engine`` marker (CI runs it as its own
gate).
"""

from __future__ import annotations

import heapq
import random

import pytest

import repro.cpu.machine as machine_mod
from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.faults.injector import FaultInjector
from repro.faults.nemesis import run_cell
from repro.faults.plan import generate_plan
from repro.locks.base import get_algorithm
from repro.params import model_a, model_b, small_test_model
from repro.sim.engine import Signal, SimulationError, Simulator

from .conftest import RWTracker, cs_program

pytestmark = pytest.mark.engine


# --------------------------------------------------------------------- #
# the oracle


class HeapSimulator(Simulator):
    """The original event store: one heapq of ``(cycle, key, seq,
    fn)`` tuples, where ``key`` is the schedule sequence number (stable
    order) or a 30-bit draw from the tiebreak RNG (seeded order).  Same
    clock and stop semantics as :meth:`Simulator.run`, written the
    obvious way."""

    def __init__(self, tiebreak_seed=None):
        super().__init__(tiebreak_seed)
        self._heap = []

    def at(self, time, fn):
        time = int(time)
        if time < self.now:
            raise SimulationError(f"cannot schedule event at {time}")
        seq = self._seq
        key = seq if self._tiebreak is None else self._tiebreak.getrandbits(30)
        heapq.heappush(self._heap, (time, key, seq, fn))
        self._seq = seq + 1

    @property
    def pending_events(self):
        return len(self._heap)

    def run(self, until=None, max_events=None, stop_when=None):
        if self._running:
            raise SimulationError("run() re-entered from an event handler")
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until {until}")
        heap = self._heap
        processed = 0
        self._running = True
        try:
            while heap:
                if self._stop or (stop_when is not None and stop_when()):
                    self._stop = False
                    break
                if max_events is not None and processed >= max_events:
                    break
                if until is not None and heap[0][0] > until:
                    self.now = until
                    break
                time, _key, _seq, fn = heapq.heappop(heap)
                self.now = time
                if self.dispatch is None:
                    fn()
                else:
                    self.dispatch(time, fn)
                processed += 1
        finally:
            self._running = False
            self._events_processed += processed
        return processed


@pytest.fixture
def on_oracle(monkeypatch):
    """Build every ``Machine`` in the test on the heapq oracle."""
    def install(cls=HeapSimulator):
        monkeypatch.setattr(machine_mod, "Simulator", cls)
    return install


# --------------------------------------------------------------------- #
# event-order capture


def _label(fn) -> str:
    """Stable identity of an event callable across two separate machine
    builds: the qualified name of the underlying function (closures,
    bound methods) or of the callable's class (slotted frame objects)."""
    func = getattr(fn, "__func__", fn)
    qual = getattr(func, "__qualname__", None)
    if qual is None:
        qual = type(fn).__qualname__
    return qual


def _recorder(trace):
    """A dispatch slot that appends ``(cycle, handler)`` and runs it."""
    def dispatch(now, fn):
        trace.append((now, _label(fn)))
        fn()
    return dispatch


def _run_workload(config_factory, lock_name, seed, fault_classes=None,
                  threads=5, iters=12, tiebreak_seed=None):
    """Run one seeded workload and return the captured ``(cycle,
    handler)`` dispatch sequence plus end-state."""
    machine = Machine(config_factory(), tiebreak_seed=tiebreak_seed)
    os_ = OS(machine)
    algo = get_algorithm(lock_name)(machine)
    handle = algo.make_lock()
    tracker = RWTracker()

    def write_of(thread, i):
        # pure function of (tid, iteration, seed): identical mode choices
        # on both stores without sharing RNG state across runs
        return (thread.tid * 2654435761 + i * 40503 + seed) % 100 < 60

    if fault_classes:
        plan = generate_plan(seed=seed, classes=fault_classes,
                             horizon=30_000)
        FaultInjector(machine, os_, plan).arm()

    trace = []
    machine.sim.dispatch = _recorder(trace)
    for _ in range(threads):
        os_.spawn(cs_program(algo, handle, tracker, iters,
                             write_of=write_of))
    elapsed = os_.run_all(max_cycles=5_000_000)
    machine.sim.dispatch = None
    machine.drain()
    return {
        "trace": trace,
        "elapsed": elapsed,
        "now": machine.sim.now,
        "events": machine.sim.events_processed,
        "cs": tracker.total,
        "violations": tracker.violations,
        "sim": machine.sim,
    }


WORKLOADS = [
    # (config, lock, seed, fault classes)
    (small_test_model, "lcu", 11, None),
    (small_test_model, "mcs", 23, None),
    (small_test_model, "mrsw", 37, None),
    (model_a, "lcu", 5, None),
    (model_b, "lcu", 7, None),
    (model_b, "ticket", 13, None),
    (model_a, "mrsw", 19, None),
    (model_b, "mao", 29, None),
    (small_test_model, "lcu", 41, ["preempt"]),
    (small_test_model, "lcu", 43, ["capacity", "evict"]),
]


@pytest.mark.parametrize(
    "config_factory,lock,seed,faults", WORKLOADS,
    ids=[f"{c.__name__}-{l}-s{s}-{'+'.join(f) if f else 'clean'}"
         for c, l, s, f in WORKLOADS],
)
def test_engine_matches_heapq_oracle(on_oracle, config_factory, lock, seed,
                                     faults):
    """Same workload on the engine's store and on the heapq oracle:
    bit-identical dispatch sequence, final cycle count and
    critical-section tally."""
    cal = _run_workload(config_factory, lock, seed, faults)
    on_oracle()
    ref = _run_workload(config_factory, lock, seed, faults)
    assert cal["events"] == ref["events"]
    assert cal["elapsed"] == ref["elapsed"]
    assert cal["now"] == ref["now"]
    assert cal["cs"] == ref["cs"]
    # the load-bearing assertion: event-by-event order parity
    assert cal["trace"] == ref["trace"]


def test_microbench_metrics_match_reference(on_oracle):
    """RunReport-level simulated metrics agree between the stores."""
    from repro.harness.microbench import run_microbench

    kw = dict(threads=6, write_pct=40, iters_per_thread=20, seed=9)
    a = run_microbench(small_test_model(), "lcu", **kw)
    on_oracle()
    b = run_microbench(small_test_model(), "lcu", **kw)
    assert a.elapsed == b.elapsed
    assert a.total_cs == b.total_cs
    assert a.per_thread_cs == b.per_thread_cs
    assert a.acquire_latency_mean == b.acquire_latency_mean
    assert a.fairness == b.fairness


def test_tiebreak_still_perturbs_order():
    """The schedule fuzzer's perturbation holds in the one loop: a
    tiebreak seed produces a different (but internally deterministic)
    interleaving."""
    base = _run_workload(small_test_model, "lcu", 3, threads=6)
    tb = [_run_workload(small_test_model, "lcu", 3, threads=6,
                        tiebreak_seed=99)["trace"] for _ in range(2)]
    assert tb[0] == tb[1], "tiebreak runs must replay exactly"
    assert tb[0] != base["trace"], "tiebreak must actually perturb order"


# --------------------------------------------------------------------- #
# seeded order: the engine vs the oracle under the same tiebreak_seed


@pytest.mark.parametrize("tiebreak_seed", [1, 99, 4242, 65535])
def test_seeded_workload_matches_oracle(on_oracle, tiebreak_seed):
    """A clean full-stack workload in seeded order: identical traces."""
    cal = _run_workload(model_b, "lcu", 17, tiebreak_seed=tiebreak_seed)
    on_oracle()
    ref = _run_workload(model_b, "lcu", 17, tiebreak_seed=tiebreak_seed)
    assert (cal["events"], cal["now"], cal["cs"]) == \
        (ref["events"], ref["now"], ref["cs"])
    assert cal["trace"] == ref["trace"]


def _recording(base):
    """``base`` with every instance's dispatch order recorded, for runs
    (nemesis cells) that build their machines out of reach."""
    class Recording(base):
        built = []

        def __init__(self, tiebreak_seed=None):
            super().__init__(tiebreak_seed)
            self.trace = []
            self.dispatch = _recorder(self.trace)
            Recording.built.append(self)

    return Recording


NEMESIS_CELLS = [
    # (algo, model, fault class, matrix seed): every cell runs seeded
    ("lcu", "A", "crash_core", 0),
    ("lcu", "A", "partition_links", 2),
    ("lcu", "B", "zombie_core", 2),
    ("lcu_fb", "B", "drop", 3),
    ("mrsw", "A", "preempt", 4),
]


@pytest.mark.parametrize(
    "algo,model,fault,seed", NEMESIS_CELLS,
    ids=[f"{a}-{m}-{f}-s{s}" for a, m, f, s in NEMESIS_CELLS],
)
def test_seeded_nemesis_cell_matches_oracle(on_oracle, algo, model, fault,
                                            seed):
    """Faulted nemesis cells (each with its own tiebreak seed): the same
    verdict, clocks, CS counts and event-by-event traces on both."""
    runs = []
    for base in (Simulator, HeapSimulator):
        cls = _recording(base)
        on_oracle(cls)
        cell = run_cell(algo, model, fault, seed, threads=4, iters=8)
        sims = cls.built
        assert sims and all(not s.stable_order for s in sims)
        runs.append((cell.to_dict(), [(s.now, s.events_processed, s.trace)
                                      for s in sims]))
    (cal_cell, cal_sims), (ref_cell, ref_sims) = runs
    assert cal_cell["outcome"] != "violated"
    assert cal_cell["injected"] > 0
    assert cal_cell == ref_cell
    assert len(cal_sims) == len(ref_sims)
    for (c_now, c_events, c_trace), (r_now, r_events, r_trace) in zip(
            cal_sims, ref_sims):
        assert (c_now, c_events) == (r_now, r_events)
        assert c_trace == r_trace


# --------------------------------------------------------------------- #
# the network files transit hops in the store itself: the oracle, which
# overrides ``at``, must still dispatch every one of them


def _counting(base):
    """``base`` with every instance's dispatched events counted by a
    ``dispatch`` hook, for runs (nemesis cells) that build their
    machines out of reach."""
    class Counting(base):
        built = []

        def __init__(self, tiebreak_seed=None):
            super().__init__(tiebreak_seed)
            self.dispatched = 0

            def count(now, fn):
                self.dispatched += 1
                fn()

            self.dispatch = count
            Counting.built.append(self)

    return Counting


def _check_oracle_dispatch(on_oracle, lock, tiebreak_seed, faults):
    """The heapq oracle dispatches as many events as the engine's plain
    run processes, and nothing is left behind in the engine's own store."""
    plain = _run_workload(model_b, lock, 17, faults,
                          tiebreak_seed=tiebreak_seed)
    on_oracle()
    ref = _run_workload(model_b, lock, 17, faults,
                        tiebreak_seed=tiebreak_seed)
    oracle = ref["sim"]
    assert isinstance(oracle, HeapSimulator)
    # events_processed counts what the oracle's own loop dispatched
    assert oracle.events_processed == plain["events"]
    assert len(ref["trace"]) == len(plain["trace"])
    assert not oracle._keys and not oracle._events
    assert (ref["now"], ref["cs"]) == (plain["now"], plain["cs"])


@pytest.mark.parametrize("tiebreak_seed", [None, 99],
                         ids=["stable", "seeded"])
@pytest.mark.parametrize("faults", [None, ["drop"]],
                         ids=["clean", "drop"])
def test_oracle_dispatches_every_event(on_oracle, tiebreak_seed, faults):
    """An lcu workload (lock protocol), clean and with dropped frames
    (reliable layer, retransmissions), in stable and seeded order."""
    _check_oracle_dispatch(on_oracle, "lcu", tiebreak_seed, faults)


@pytest.mark.parametrize("tiebreak_seed", [None, 99],
                         ids=["stable", "seeded"])
@pytest.mark.parametrize("faults", [None, ["drop"]],
                         ids=["clean", "drop"])
def test_oracle_dispatches_every_coherence_event(on_oracle, tiebreak_seed,
                                                 faults):
    """An mrsw workload (coherence directory, fills, local spinning),
    clean and with dropped frames, in stable and seeded order."""
    _check_oracle_dispatch(on_oracle, "mrsw", tiebreak_seed, faults)


def test_oracle_dispatches_every_nemesis_event(on_oracle):
    """A faulted nemesis cell (always seeded order) on the oracle: its
    dispatch count equals the plain run's ``events_processed``."""
    runs = []
    for base in (Simulator, HeapSimulator):
        cls = _counting(base)
        on_oracle(cls)
        cell = run_cell("lcu", "B", "drop", 3, threads=4, iters=8)
        runs.append((cell.to_dict(), cls.built))
    (plain_cell, plain_sims), (ref_cell, ref_sims) = runs
    assert plain_cell == ref_cell
    assert [s.events_processed for s in plain_sims] == \
        [s.dispatched for s in ref_sims]
    assert all(not s._keys for s in ref_sims)


# --------------------------------------------------------------------- #
# Simulator.run: the tight loop (no dispatch, stop_when or max_events)
# and the general loop give the same runs


class _PassThrough(Simulator):
    """A simulator whose events all go through a pass-through
    ``dispatch`` hook, so :meth:`Simulator.run` takes its general
    loop."""

    def __init__(self, tiebreak_seed=None):
        super().__init__(tiebreak_seed)
        self.dispatch = lambda now, fn: fn()


def _with_sims(monkeypatch, base, run):
    """``run()`` with every machine built on ``base``; returns its
    result and each simulator's clock and ``engine_stats``."""
    built = []

    class Built(base):
        def __init__(self, tiebreak_seed=None):
            super().__init__(tiebreak_seed)
            built.append(self)

    monkeypatch.setattr(machine_mod, "Simulator", Built)
    out = run()
    return out, [(s.now, s.engine_stats()) for s in built]


LOOP_CELLS = [
    # (lock, model, write %, iterations, seed): 16 threads each, as the
    # lcu_rw and swlock_rw benchmark cells
    ("lcu", model_a, 25, 15, 1),
    ("lcu", model_b, 100, 15, 2),
    ("mcs", model_a, 25, 10, 1),
    ("mrsw", model_b, 25, 10, 2),
]


@pytest.mark.parametrize(
    "lock,config_factory,write_pct,iters,seed", LOOP_CELLS,
    ids=[f"{l}-{c.__name__}-w{w}-s{s}" for l, c, w, _i, s in LOOP_CELLS],
)
def test_tight_loop_matches_general_loop(monkeypatch, lock, config_factory,
                                         write_pct, iters, seed):
    from repro.harness.microbench import run_microbench

    def run():
        r = run_microbench(config_factory(), lock, 16, write_pct,
                           iters_per_thread=iters, seed=seed)
        return r.elapsed, r.total_cs, r.per_thread_cs

    tight, tight_sims = _with_sims(monkeypatch, Simulator, run)
    general, general_sims = _with_sims(monkeypatch, _PassThrough, run)
    assert tight == general
    assert tight_sims == general_sims
    assert tight_sims[0][1]["events_processed"] > 0


def test_tight_loop_matches_general_loop_nemesis(monkeypatch):
    def run():
        return run_cell("lcu", "A", "crash_core", 0, threads=4,
                        iters=8).to_dict()

    tight, tight_sims = _with_sims(monkeypatch, Simulator, run)
    general, general_sims = _with_sims(monkeypatch, _PassThrough, run)
    assert tight["outcome"] != "violated"
    assert tight == general
    assert tight_sims == general_sims


# --------------------------------------------------------------------- #
# property tests (seeded in-repo generators) on Simulator.at / run


def _oracle_order(pushes):
    """Expected dispatch order: by time, then push sequence (FIFO)."""
    return [fn for _t, _seq, fn in
            sorted(((t, i, fn) for i, (t, fn) in enumerate(pushes)),
                   key=lambda x: (x[0], x[1]))]


@pytest.mark.parametrize("seed", range(8))
def test_push_pop_monotone_and_fifo(seed):
    """Random interleavings of pushes and single-event runs: events come
    out in nondecreasing time order, same-cycle events in push (FIFO)
    order — a run stopped mid-cycle resumes it — and the pending count
    tracks exactly."""
    rng = random.Random(seed * 7919 + 1)
    sim = Simulator()
    pushed = []           # (time, tag) in push order
    popped = []
    for _ in range(600):
        if sim.pending_events and rng.random() < 0.4:
            clock = sim.now
            assert sim.run(max_events=1) == 1
            assert sim.now >= clock, "the clock must never go backwards"
        else:
            t = sim.now + rng.randrange(0, 12)
            tag = ("ev", t, len(pushed))
            sim.at(t, lambda tag=tag: popped.append((sim.now, tag)))
            pushed.append((t, tag))
        assert sim.pending_events == len(pushed) - len(popped)
    sim.run()
    assert all(t == tag[1] for t, tag in popped)
    assert [tag for _t, tag in popped] == _oracle_order(pushed)


class _NarrowDraws(random.Random):
    """A tiebreak RNG whose draws collide often: 2 bits, not 30."""

    def getrandbits(self, k):
        return super().getrandbits(2)


@pytest.mark.parametrize("narrow", [False, True], ids=["draws30", "draws2"])
@pytest.mark.parametrize("seed", range(4))
def test_seeded_order_is_sorted_cycle_key_seq(seed, narrow):
    """Seeded order, with same-cycle and future events scheduled from
    inside handlers and from outside between runs of random length:
    every dispatched event is the least pending ``(cycle, draw, seq)``
    — the draw replayed from a twin of the tiebreak RNG.  Narrow draws
    make same-cycle events tie on the draw, so the schedule sequence
    decides between them, and a handler often schedules an event that
    must run before others already pending for its cycle."""
    rng = random.Random(seed * 104729 + 5)
    tb_seed = 1000 + seed
    rng_cls = _NarrowDraws if narrow else random.Random
    draws = rng_cls(tb_seed)
    sim = Simulator(tiebreak_seed=tb_seed)
    sim._tiebreak = rng_cls(tb_seed)
    pending = {}          # seq -> (cycle, draw, seq)
    dispatched = []
    nested_same_cycle = [0]

    def push(t):
        seq = len(pending) + len(dispatched)
        entry = (t, draws.getrandbits(30), seq)
        pending[seq] = entry

        def event():
            assert sim.now == entry[0]
            assert entry == min(pending.values())
            del pending[seq]
            dispatched.append(entry)
            for _ in range(rng.choice((0, 0, 1, 2))):
                delay = rng.choice((0, 0, 1, 5))
                nested_same_cycle[0] += delay == 0
                push(sim.now + delay)

        sim.at(t, event)

    for _ in range(300):
        if pending and rng.random() < 0.5:
            sim.run(max_events=rng.randrange(1, 6))
        else:
            push(sim.now + rng.randrange(0, 8))
        assert sim.pending_events == len(pending)
    sim.run()
    assert not pending
    assert nested_same_cycle[0] > 20


@pytest.mark.parametrize("seed", range(4))
def test_engine_store_drains_like_heapq_oracle(seed):
    """Drain the engine and the heapq oracle over an identical random push
    schedule, in stable and in seeded order."""
    rng = random.Random(seed * 104729 + 3)
    times = [rng.randrange(0, 64) for _ in range(500)]
    for tiebreak_seed in (None, seed):
        out = []
        for cls in (Simulator, HeapSimulator):
            sim = cls(tiebreak_seed=tiebreak_seed)
            order = []
            for i, t in enumerate(times):
                sim.at(t, lambda i=i, sim=sim: order.append((sim.now, i)))
            sim.run()
            out.append(order)
        assert out[0] == out[1]


@pytest.mark.parametrize("tiebreak_seed", [None, 9],
                         ids=["stable", "seeded"])
def test_store_holds_one_key_per_pending_event(tiebreak_seed):
    """Every pending event owns exactly one key, held once in the heap
    and once in the key -> callback dict, and a drain leaves both
    empty — also when events schedule more events while it runs."""
    sim = Simulator(tiebreak_seed=tiebreak_seed)

    def assert_consistent():
        assert sorted(sim._keys) == sorted(sim._events)
        assert len(set(sim._keys)) == len(sim._keys) == sim.pending_events

    def chain(left):
        assert_consistent()
        if left:
            sim.at(sim.now + left % 2, lambda: chain(left - 1))

    for round_ in range(10):
        for t in range(8):
            sim.at(round_ * 100 + t // 2, lambda: None)
        sim.at(round_ * 100, lambda: chain(5))
        assert sim.pending_events == 9
        assert_consistent()
        sim.run()
        assert not sim._keys and not sim._events
        assert sim.pending_events == 0


def test_batched_advance_skips_empty_cycles():
    """The clock jumps straight across arbitrarily long empty gaps."""
    sim = Simulator()
    hits = []
    sim.at(5, lambda: hits.append(sim.now))
    sim.at(1_000_000_007, lambda: hits.append(sim.now))
    n = sim.run()
    assert n == 2
    assert hits == [5, 1_000_000_007]
    assert sim.now == 1_000_000_007


@pytest.mark.parametrize("tiebreak_seed", [None, 5],
                         ids=["stable", "seeded"])
def test_until_bound_is_exact(tiebreak_seed):
    """``until`` becomes a key bound: an event at ``until`` runs and one
    a cycle later waits; a run without ``until`` passes any key, even
    one above the bound it compares against."""
    sim = Simulator(tiebreak_seed=tiebreak_seed)
    hits = []
    for t in (10, 11, 1 << 230):
        sim.at(t, lambda: hits.append(sim.now))
    sim.run(until=10)
    assert (hits, sim.now, sim.pending_events) == ([10], 10, 2)
    sim.run()
    assert hits == [10, 11, 1 << 230]
    assert sim.now == 1 << 230


def test_signal_cancel_and_rearm():
    """Signal wait / cancel / re-arm keep working over the keyed
    store: a cancelled waiter never fires, a re-armed one fires once."""
    sim = Simulator()
    fired = []
    sig = Signal(sim)
    token = sig.wait(lambda _p: fired.append("a"))
    sig.cancel(token)
    sig.wait(lambda _p: fired.append("b"))
    sim.at(10, sig.fire)
    sim.run()
    assert fired == ["b"]
    # re-arm after a fire: next fire resumes the new waiter only
    sig.wait(lambda _p: fired.append("c"))
    sim.at(20, sig.fire)
    sim.run()
    assert fired == ["b", "c"]


def _same_cycle_order(cls, tiebreak_seed):
    sim = cls(tiebreak_seed=tiebreak_seed)
    order = []

    def first():
        order.append(("first", sim.now))
        sim.at(sim.now, lambda: order.append(("chained", sim.now)))

    sim.at(7, first)
    sim.at(7, lambda: order.append(("second", sim.now)))
    sim.at(8, lambda: order.append(("later", sim.now)))
    sim.run()
    return order


def test_same_cycle_appends_dispatch_this_cycle():
    """An event scheduled *for the current cycle* from inside a handler
    runs before time advances — in stable order after every event
    already pending for this cycle, in seeded order wherever its draw
    puts it (as on the oracle)."""
    for tiebreak_seed in (None, 1, 2, 3, 4):
        order = _same_cycle_order(Simulator, tiebreak_seed)
        assert order == _same_cycle_order(HeapSimulator, tiebreak_seed)
        assert order[-1] == ("later", 8)
        assert sorted(order[:3]) == \
            [("chained", 7), ("first", 7), ("second", 7)]
        if tiebreak_seed is None:
            assert [name for name, _t in order] == \
                ["first", "second", "chained", "later"]


def _raise_and_resume(cls, tiebreak_seed, position):
    sim = cls(tiebreak_seed=tiebreak_seed)
    ran = []
    sim.at(5, lambda: ran.append("a"))
    sim.at(5, _raiser())
    if position == "middle":
        sim.at(5, lambda: ran.append("b"))
    sim.at(9, lambda: ran.append("tail"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    before = len(ran)
    left = sim.pending_events
    # resumable: remaining events drain cleanly
    sim.run()
    return ran, before, left


def test_raise_mid_bucket_keeps_store_consistent():
    """A handler raising mid-cycle must leave the queue resumable: the
    raiser and the events dispatched before it are gone, the rest still
    queued — including the corner case where the raiser was its
    cycle's last event.  In seeded order the raiser's position is the
    draw's, as on the oracle."""
    for tiebreak_seed in (None, 0, 1, 2, 3):
        for position in ("middle", "last"):
            ran, before, left = _raise_and_resume(
                Simulator, tiebreak_seed, position)
            assert (ran, before, left) == _raise_and_resume(
                HeapSimulator, tiebreak_seed, position)
            expect = (["a", "b", "tail"] if position == "middle"
                      else ["a", "tail"])
            # the raiser is consumed: it is neither run again nor pending
            assert before + left == len(expect)
            assert sorted(ran) == sorted(expect)
            assert ran[-1] == "tail"
            if tiebreak_seed is None:
                assert ran == expect


def _raiser():
    def boom():
        raise RuntimeError("boom")
    return boom
