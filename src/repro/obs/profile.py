"""Post-hoc contention profiler: per-lock wait attribution.

The telemetry layer (PR 1) answers *how much* — counters, histograms,
raw spans.  This module answers *where the time went*: it decomposes
every lock acquisition into the paper's transfer pipeline,

    enqueue -> queue_wait -> transfer -> handoff -> critical_section

using timestamp events the hardware models publish on the probe bus
(:mod:`repro.sim.bus`: the ``lcu``, ``lrt`` and ``net`` topics) plus the
lock-algorithm observer events of
:class:`~repro.locks.base.LockAlgorithm` — no span-name string parsing
anywhere.  Phase boundaries, per acquisition of thread *t*:

    t0  request   thread enters the acquire path (observer "request")
    t1  enqueue   the home LRT accepts the request into the queue
                  (probe "enqueue"; software locks: observer "enqueued"
                  fired when the thread links into the queue)
    t2  grant     the grant targeting *t* leaves the previous holder
                  (LRT/LCU probe "grant_sent")
    t3  arrival   the grant lands in *t*'s LCU (probe "grant_recv")
    t4  acquired  the thread claims the lock (observer "acquire")
    t5  released  the critical section ends (observer "release")

Missing interior timestamps (software locks have no grant messages; an
FLT hit has no LRT traffic) are resolved conservatively — t1 falls back
to t0, t3 to t4, t2 to t3 — and every timestamp is clamped into its
neighbours' window, so the four acquire phases *always* telescope to
exactly ``t4 - t0``, the same end-to-end latency the harness measures.

Besides the decomposition the profiler keeps, per lock:

* a queue-depth timeline — ``(t, waiting_readers, waiting_writers,
  holders)`` at every state change — plus time-weighted means;
* protocol-message attribution (count / inter-chip crossings / by type)
  per logical send on the ``net`` topic, keyed on the ``addr`` field
  every LCU/LRT message carries;
* the serialization **critical path**: the alternating
  critical-section / handoff edge chain in grant order, with top-N
  edges by cost.

Export targets: a JSON ``profile`` section for version-2 RunReports
(:func:`validate_profile` is the schema check), a folded-stack text file
(``lock;mode;phase weight`` — flamegraph.pl / speedscope format) and a
Chrome trace-event JSON of phase spans that loads in Perfetto.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Tuple

PROFILE_SCHEMA = "repro.profile"
PROFILE_VERSION = 1

#: acquire-phase names, in pipeline order (critical_section rides behind)
ACQUIRE_PHASES = ("enqueue", "queue_wait", "transfer", "handoff")
ALL_PHASES = ACQUIRE_PHASES + ("critical_section",)


class ProfileError(ValueError):
    """A profile object does not conform to the schema."""


def _clamp(t: Optional[int], lo: int, hi: int, default: int) -> int:
    if t is None:
        t = default
    return max(lo, min(hi, t))


@dataclasses.dataclass
class Acquisition:
    """One lock acquisition's timestamp skeleton (cycles)."""

    lock: str
    tid: int
    write: bool
    t_request: int
    t_enqueue: Optional[int] = None     # last wins (covers LRT retries)
    t_grant_sent: Optional[int] = None  # first wins (first enabling grant)
    t_grant_recv: Optional[int] = None  # first wins
    t_acquired: Optional[int] = None
    t_released: Optional[int] = None

    def phases(self) -> Dict[str, int]:
        """Telescoped acquire-phase durations; sums to exactly
        ``t_acquired - t_request`` by construction."""
        t0, t4 = self.t_request, self.t_acquired
        assert t4 is not None, "phases() on an unfinished acquisition"
        t1 = _clamp(self.t_enqueue, t0, t4, default=t0)
        t3 = _clamp(self.t_grant_recv, t1, t4, default=t4)
        t2 = _clamp(self.t_grant_sent, t1, t3, default=t3)
        return {
            "enqueue": t1 - t0,
            "queue_wait": t2 - t1,
            "transfer": t3 - t2,
            "handoff": t4 - t3,
        }

    @property
    def acquire_latency(self) -> int:
        assert self.t_acquired is not None
        return self.t_acquired - self.t_request

    @property
    def cs_cycles(self) -> Optional[int]:
        if self.t_released is None or self.t_acquired is None:
            return None
        return self.t_released - self.t_acquired


class _PhaseStat:
    """Total / count / max accumulator for one phase."""

    __slots__ = ("total", "count", "max")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0
        self.max = 0

    def add(self, x: int) -> None:
        self.total += x
        self.count += 1
        if x > self.max:
            self.max = x

    def to_dict(self) -> Dict[str, float]:
        return {
            "total": self.total,
            "count": self.count,
            "mean": self.total / self.count if self.count else 0.0,
            "max": self.max,
        }


class _LockState:
    """Live bookkeeping for one lock while profiling runs."""

    __slots__ = (
        "label", "pending", "active", "completed", "waiting_read",
        "waiting_write", "holders", "timeline", "timeline_dropped",
        "abandoned", "messages", "inter_chip", "msg_types",
    )

    def __init__(self, label: str) -> None:
        self.label = label
        #: tid -> Acquisition not yet acquired
        self.pending: Dict[int, Acquisition] = {}
        #: tid -> Acquisition held (acquired, not released)
        self.active: Dict[int, Acquisition] = {}
        self.completed: List[Acquisition] = []
        self.waiting_read = 0
        self.waiting_write = 0
        self.holders = 0
        self.timeline: List[Tuple[int, int, int, int]] = []
        self.timeline_dropped = 0
        self.abandoned = 0
        self.messages = 0
        self.inter_chip = 0
        self.msg_types: Dict[str, int] = {}


class ContentionProfiler:
    """Collects lock-phase timestamps from machine probes and algorithm
    observers; exports decomposition / timelines / critical paths.

    Usage (the harness does this when ``profiler=`` is passed)::

        prof = ContentionProfiler()
        prof.attach_machine(machine)        # lcu / lrt / net bus topics
        prof.attach_algorithm(algo, "lcu")  # thread-level request/acquire
        ... run ...
        prof.detach()
        print(prof.summarize())
        report["profile"] = prof.to_dict()

    Subscribers are passive: they never schedule events or send
    messages, so the simulated cycle counts of a profiled run are
    identical to an unprofiled one (``BENCH_profile.json`` tracks the
    host-time cost).
    """

    def __init__(self, max_timeline: int = 20_000) -> None:
        self._sim = None
        self._machine = None
        self._locks: Dict[Any, _LockState] = {}
        self._algos: List[Tuple[Any, Any]] = []   # (algo, observer fn)
        self._lock_names: Dict[Any, str] = {}     # lock key -> algo name
        self.max_timeline = max_timeline
        self.unmatched_probes = 0

    # ------------------------------------------------------------------ #
    # attachment

    def attach_machine(self, machine) -> "ContentionProfiler":
        """Subscribe to ``machine``'s ``lcu``, ``lrt`` and ``net`` bus
        topics.  Replaces any previous attachment (one machine at a
        time)."""
        self.detach_machine()
        self._machine = machine
        self._sim = machine.sim
        bus = machine.sim.bus
        bus.lcu.append(self._on_lcu_probe)
        bus.lrt.append(self._on_lrt_probe)
        bus.net.append(self._on_net_probe)
        return self

    def attach_algorithm(self, algo, name: Optional[str] = None) -> None:
        """Observe thread-level lock lifecycle events (request / enqueued
        / acquire / release / abandon) issued through ``algo``'s observed
        wrappers.  ``name`` labels this algorithm's locks in the output
        (default: the algorithm's registry name)."""
        if self._sim is None:
            self._sim = algo.machine.sim
        prefix = name if name is not None else algo.name

        def observer(event, thread, handle, write, _algo=algo, _p=prefix):
            self._on_algo_event(event, thread, handle, write, _algo, _p)

        algo.add_observer(observer)
        self._algos.append((algo, observer))

    def detach_machine(self) -> None:
        if self._machine is None:
            return
        bus = self._machine.sim.bus
        bus.lcu.remove(self._on_lcu_probe)
        bus.lrt.remove(self._on_lrt_probe)
        bus.net.remove(self._on_net_probe)
        self._machine = None

    def detach(self) -> None:
        """Remove every probe and observer installed by this profiler."""
        self.detach_machine()
        for algo, observer in self._algos:
            algo.remove_observer(observer)
        self._algos.clear()

    # ------------------------------------------------------------------ #
    # event intake

    def _now(self) -> int:
        return self._sim.now if self._sim is not None else 0

    def _state_for(self, key: Any, label: str) -> _LockState:
        st = self._locks.get(key)
        if st is None:
            st = self._locks[key] = _LockState(label)
        return st

    def _mark(self, st: _LockState) -> None:
        point = (self._now(), st.waiting_read, st.waiting_write, st.holders)
        if st.timeline and st.timeline[-1] == point:
            return
        if len(st.timeline) < self.max_timeline:
            st.timeline.append(point)
        else:
            st.timeline_dropped += 1

    def _on_algo_event(self, event, thread, handle, write, algo, prefix):
        key = algo.lock_id(handle)
        st = self._state_for(key, f"{prefix}@{key:#x}"
                             if isinstance(key, int) else f"{prefix}@{key}")
        self._lock_names.setdefault(key, prefix)
        tid = thread.tid
        now = self._now()
        if event == "request":
            st.pending[tid] = Acquisition(st.label, tid, write, now)
            if write:
                st.waiting_write += 1
            else:
                st.waiting_read += 1
            self._mark(st)
        elif event == "enqueued":
            rec = st.pending.get(tid)
            if rec is not None and rec.t_enqueue is None:
                # Probe-side enqueue events (LCU/LRT) carry the exact
                # hardware enqueue time and fire before the thread
                # resumes; never overwrite them with the (later)
                # software-observed join.
                rec.t_enqueue = now
        elif event == "acquire":
            rec = st.pending.pop(tid, None)
            if rec is None:          # acquired without an observed request
                rec = Acquisition(st.label, tid, write, now)
            rec.t_acquired = now
            st.active[tid] = rec
            if rec.write:
                st.waiting_write = max(0, st.waiting_write - 1)
            else:
                st.waiting_read = max(0, st.waiting_read - 1)
            st.holders += 1
            self._mark(st)
        elif event == "release":
            rec = st.active.pop(tid, None)
            if rec is not None:
                rec.t_released = now
                st.completed.append(rec)
                st.holders = max(0, st.holders - 1)
                self._mark(st)
        elif event == "abandon":
            rec = st.pending.pop(tid, None)
            if rec is not None:
                st.abandoned += 1
                if rec.write:
                    st.waiting_write = max(0, st.waiting_write - 1)
                else:
                    st.waiting_read = max(0, st.waiting_read - 1)
                self._mark(st)

    # -- bus subscribers -------------------------------------------------- #
    # Signatures are positional and tiny: the hardware models call them
    # on hot paths.  The lcu/lrt topics also carry the invariant
    # monitor's events; those are dropped before they could count as
    # unmatched probes.

    def _pending_rec(self, addr: int, tid: int) -> Optional[Acquisition]:
        st = self._locks.get(addr)
        if st is None:
            self.unmatched_probes += 1
            return None
        rec = st.pending.get(tid)
        if rec is None:
            self.unmatched_probes += 1
        return rec

    def _on_lcu_probe(self, event: str, addr: int, tid: int,
                      write: bool) -> None:
        if event not in ("req_sent", "grant_sent", "grant_recv"):
            return
        rec = self._pending_rec(addr, tid)
        if rec is None:
            return
        now = self._now()
        if event == "grant_recv":
            if rec.t_grant_recv is None:
                rec.t_grant_recv = now
        elif event == "grant_sent":
            if rec.t_grant_sent is None:
                rec.t_grant_sent = now
        elif event == "req_sent":
            # A (re-)issued request: the thread is not in the queue yet.
            rec.t_enqueue = None

    def _on_lrt_probe(self, event: str, addr: int, tid: int,
                      write: bool) -> None:
        if event != "enqueue" and event != "grant_sent":
            return
        rec = self._pending_rec(addr, tid)
        if rec is None:
            return
        now = self._now()
        if event == "enqueue":
            rec.t_enqueue = now      # last wins: retries restart the clock
        elif event == "grant_sent":
            if rec.t_grant_sent is None:
                rec.t_grant_sent = now

    def _on_net_probe(self, src, dst, payload) -> None:
        addr = getattr(payload, "addr", None)
        if addr is None:
            return
        st = self._locks.get(addr)
        if st is None:
            return
        st.messages += 1
        chip_of = self._machine._chip_of
        if src != dst and chip_of(src) != chip_of(dst):
            st.inter_chip += 1
        tname = type(payload).__name__
        st.msg_types[tname] = st.msg_types.get(tname, 0) + 1

    # ------------------------------------------------------------------ #
    # analysis

    @property
    def lock_keys(self) -> List[Any]:
        return sorted(self._locks, key=str)

    def _records(self, st: _LockState) -> List[Acquisition]:
        done = [r for r in st.completed if r.t_acquired is not None]
        held = [r for r in st.active.values() if r.t_acquired is not None]
        return done + held

    def _critical_path(self, st: _LockState, top: int) -> Dict[str, Any]:
        """Serialization chain in grant order: alternating
        critical-section and handoff edges.  Overlapping acquisitions
        (concurrent readers) contribute no handoff edge."""
        recs = sorted(
            (r for r in self._records(st) if r.t_released is not None),
            key=lambda r: (r.t_acquired, r.tid),
        )
        edges: List[Dict[str, Any]] = []
        cs_total = 0
        handoff_total = 0
        prev: Optional[Acquisition] = None
        for r in recs:
            if prev is not None:
                gap = r.t_acquired - prev.t_released
                if gap > 0:
                    edges.append({
                        "kind": "handoff",
                        "from_tid": prev.tid,
                        "to_tid": r.tid,
                        "start": prev.t_released,
                        "duration": gap,
                    })
                    handoff_total += gap
            edges.append({
                "kind": "critical_section",
                "from_tid": r.tid,
                "to_tid": r.tid,
                "start": r.t_acquired,
                "duration": r.cs_cycles,
            })
            cs_total += r.cs_cycles
            prev = r
        top_edges = sorted(
            edges, key=lambda e: (-e["duration"], e["start"])
        )[:top]
        return {
            "links": len(recs),
            "length": cs_total + handoff_total,
            "cs_total": cs_total,
            "handoff_total": handoff_total,
            "top_edges": top_edges,
        }

    def _queue_depth(self, st: _LockState) -> Dict[str, Any]:
        max_r = max_w = 0
        area_r = area_w = area_h = 0.0
        for i, (t, r, w, h) in enumerate(st.timeline):
            max_r = max(max_r, r)
            max_w = max(max_w, w)
            if i + 1 < len(st.timeline):
                dt = st.timeline[i + 1][0] - t
                area_r += r * dt
                area_w += w * dt
                area_h += h * dt
        span = (st.timeline[-1][0] - st.timeline[0][0]) if len(
            st.timeline) > 1 else 0
        return {
            "max_waiting_readers": max_r,
            "max_waiting_writers": max_w,
            "mean_waiting_readers": area_r / span if span else 0.0,
            "mean_waiting_writers": area_w / span if span else 0.0,
            "mean_holders": area_h / span if span else 0.0,
            "points": len(st.timeline),
            "dropped_points": st.timeline_dropped,
            "timeline": [list(p) for p in st.timeline],
        }

    def _lock_dict(self, st: _LockState, top: int) -> Dict[str, Any]:
        recs = self._records(st)
        phases: Dict[str, _PhaseStat] = {p: _PhaseStat() for p in ALL_PHASES}
        by_mode: Dict[str, Dict[str, _PhaseStat]] = {
            "read": {p: _PhaseStat() for p in ALL_PHASES},
            "write": {p: _PhaseStat() for p in ALL_PHASES},
        }
        per_thread: Dict[int, Dict[str, int]] = {}
        acquire_total = 0
        for r in recs:
            mode = "write" if r.write else "read"
            for name, dur in r.phases().items():
                phases[name].add(dur)
                by_mode[mode][name].add(dur)
            cs = r.cs_cycles
            if cs is not None:
                phases["critical_section"].add(cs)
                by_mode[mode]["critical_section"].add(cs)
            acquire_total += r.acquire_latency
            t = per_thread.setdefault(
                r.tid, {"acquisitions": 0, "wait_total": 0, "cs_total": 0}
            )
            t["acquisitions"] += 1
            t["wait_total"] += r.acquire_latency
            t["cs_total"] += cs if cs is not None else 0
        reads = sum(1 for r in recs if not r.write)
        return {
            "acquisitions": len(recs),
            "reads": reads,
            "writes": len(recs) - reads,
            "abandoned": st.abandoned,
            "unreleased": len(st.active),
            "acquire_latency_total": acquire_total,
            "phases": {p: s.to_dict() for p, s in phases.items()},
            "by_mode": {
                m: {p: s.to_dict() for p, s in table.items()}
                for m, table in by_mode.items()
            },
            "per_thread": {
                str(tid): v for tid, v in sorted(per_thread.items())
            },
            "queue_depth": self._queue_depth(st),
            "messages": {
                "total": st.messages,
                "inter_chip": st.inter_chip,
                "by_type": dict(sorted(st.msg_types.items())),
            },
            "critical_path": self._critical_path(st, top),
        }

    # ------------------------------------------------------------------ #
    # exports

    def to_dict(self, top: int = 10) -> Dict[str, Any]:
        """The ``profile`` section of a version-2 RunReport."""
        out = {
            "schema": PROFILE_SCHEMA,
            "version": PROFILE_VERSION,
            "unmatched_probes": self.unmatched_probes,
            "locks": {
                self._locks[k].label: self._lock_dict(self._locks[k], top)
                for k in self.lock_keys
            },
        }
        validate_profile(out)
        return out

    def folded(self) -> str:
        """Folded-stack (collapsed) text: ``lock;mode;phase weight`` per
        line, weights in cycles — feed to flamegraph.pl or speedscope."""
        lines = []
        for key in self.lock_keys:
            st = self._locks[key]
            agg: Dict[Tuple[str, str], int] = {}
            for r in self._records(st):
                mode = "write" if r.write else "read"
                for name, dur in r.phases().items():
                    agg[(mode, name)] = agg.get((mode, name), 0) + dur
                cs = r.cs_cycles
                if cs is not None:
                    agg[(mode, "critical_section")] = (
                        agg.get((mode, "critical_section"), 0) + cs
                    )
            for (mode, name), weight in sorted(agg.items()):
                lines.append(f"{st.label};{mode};{name} {weight}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_folded(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.folded())

    def to_chrome_trace(self, capacity: int = 500_000) -> Dict[str, Any]:
        """Phase spans as Chrome trace-event JSON (Perfetto-loadable):
        one track per thread, one ``X`` event per phase per acquisition."""
        events: List[Dict[str, Any]] = [{
            "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": "repro contention profile"},
        }]
        tids: Dict[int, int] = {}

        def track(tid: int) -> int:
            t = tids.get(tid)
            if t is None:
                t = tids[tid] = len(tids) + 1
                events.append({
                    "ph": "M", "pid": 0, "tid": t, "name": "thread_name",
                    "args": {"name": f"thread {tid}"},
                })
            return t

        n = 0
        for key in self.lock_keys:
            st = self._locks[key]
            for r in sorted(self._records(st),
                            key=lambda r: (r.t_request, r.tid)):
                cursor = r.t_request
                segs = list(r.phases().items())
                if r.cs_cycles is not None:
                    segs.append(("critical_section", r.cs_cycles))
                for name, dur in segs:
                    if n >= capacity:
                        break
                    events.append({
                        "ph": "X", "name": name, "cat": "profile",
                        "pid": 0, "tid": track(r.tid),
                        "ts": cursor, "dur": dur,
                        "args": {"lock": st.label,
                                 "mode": "write" if r.write else "read"},
                    })
                    cursor += dur
                    n += 1
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock_unit": "cycles"},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome_trace(), f, indent=1, sort_keys=True)
            f.write("\n")

    def summarize(self, top: int = 5) -> str:
        """Human-readable per-lock wait decomposition (the ``repro
        profile`` verb's output)."""
        locks = self.lock_keys
        total_acq = sum(len(self._records(self._locks[k])) for k in locks)
        lines = [
            f"Contention profile: {len(locks)} lock(s), "
            f"{total_acq} acquisitions"
        ]
        for key in locks:
            st = self._locks[key]
            d = self._lock_dict(st, top)
            lines.append("")
            lines.append(
                f"lock {st.label} — {d['acquisitions']} acquisitions "
                f"({d['writes']} write / {d['reads']} read, "
                f"{d['abandoned']} abandoned)"
            )
            acq_total = d["acquire_latency_total"]
            lines.append("  acquire-latency decomposition "
                         "(cycles: total / mean / max):")
            phase_sum = 0
            for name in ALL_PHASES:
                s = d["phases"][name]
                if name in ACQUIRE_PHASES:
                    phase_sum += s["total"]
                pct = (100.0 * s["total"] / acq_total
                       if acq_total and name in ACQUIRE_PHASES else None)
                pct_txt = f"  ({pct:5.1f}% of wait)" if pct is not None else ""
                lines.append(
                    f"    {name:<16s} {s['total']:>10d} / "
                    f"{s['mean']:>8.1f} / {s['max']:>7d}{pct_txt}"
                )
            if acq_total:
                lines.append(
                    f"  phase sum = {phase_sum} cycles = "
                    f"{100.0 * phase_sum / acq_total:.2f}% of end-to-end "
                    f"acquire latency ({acq_total})"
                )
            q = d["queue_depth"]
            lines.append(
                f"  queue depth: max waiters "
                f"{q['max_waiting_writers']}w/{q['max_waiting_readers']}r, "
                f"time-weighted mean "
                f"{q['mean_waiting_writers']:.2f}w/"
                f"{q['mean_waiting_readers']:.2f}r, "
                f"mean holders {q['mean_holders']:.2f}"
            )
            m = d["messages"]
            top_types = sorted(
                m["by_type"].items(), key=lambda kv: -kv[1]
            )[:4]
            lines.append(
                f"  messages: {m['total']} total, "
                f"{m['inter_chip']} inter-chip"
                + (("; top: " + ", ".join(
                    f"{t}={c}" for t, c in top_types)) if top_types else "")
            )
            cp = d["critical_path"]
            lines.append(
                f"  critical path: {cp['length']} cycles over "
                f"{cp['links']} links "
                f"(cs {cp['cs_total']}, handoff {cp['handoff_total']}); "
                f"top edges:"
            )
            for i, e in enumerate(cp["top_edges"][:top], 1):
                lines.append(
                    f"    {i}. {e['kind']:<16s} tid {e['from_tid']} -> "
                    f"tid {e['to_tid']}  {e['duration']} cycles "
                    f"@ t={e['start']}"
                )
        if self.unmatched_probes:
            lines.append("")
            lines.append(f"(unmatched hardware probes: "
                         f"{self.unmatched_probes})")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# schema validation

def validate_profile(obj: Any) -> None:
    """Structural check of a profile section; raises
    :class:`ProfileError` describing the first problem found."""
    if not isinstance(obj, dict):
        raise ProfileError("profile must be a JSON object")
    if obj.get("schema") != PROFILE_SCHEMA:
        raise ProfileError(f"profile.schema must be {PROFILE_SCHEMA!r}")
    if obj.get("version") != PROFILE_VERSION:
        raise ProfileError(f"profile.version must be {PROFILE_VERSION}")
    locks = obj.get("locks")
    if not isinstance(locks, dict):
        raise ProfileError("profile.locks must be an object")
    for label, d in locks.items():
        ctx = f"profile.locks[{label!r}]"
        if not isinstance(d, dict):
            raise ProfileError(f"{ctx} must be an object")
        for field in ("acquisitions", "reads", "writes",
                      "acquire_latency_total"):
            if not isinstance(d.get(field), int):
                raise ProfileError(f"{ctx}.{field} must be an int")
        phases = d.get("phases")
        if not isinstance(phases, dict):
            raise ProfileError(f"{ctx}.phases must be an object")
        for p in ALL_PHASES:
            s = phases.get(p)
            if not isinstance(s, dict) or not all(
                k in s for k in ("total", "mean", "max", "count")
            ):
                raise ProfileError(
                    f"{ctx}.phases[{p!r}] must have total/mean/max/count"
                )
        acq_phase_sum = sum(phases[p]["total"] for p in ACQUIRE_PHASES)
        if acq_phase_sum != d["acquire_latency_total"]:
            raise ProfileError(
                f"{ctx}: acquire phases sum to {acq_phase_sum}, "
                f"not acquire_latency_total={d['acquire_latency_total']}"
            )
        q = d.get("queue_depth")
        if not isinstance(q, dict) or "timeline" not in q:
            raise ProfileError(f"{ctx}.queue_depth must have a timeline")
        for pt in q["timeline"]:
            if not (isinstance(pt, list) and len(pt) == 4):
                raise ProfileError(
                    f"{ctx}.queue_depth.timeline entries must be "
                    f"[t, readers, writers, holders]"
                )
        msgs = d.get("messages")
        if not isinstance(msgs, dict) or not all(
            k in msgs for k in ("total", "inter_chip", "by_type")
        ):
            raise ProfileError(
                f"{ctx}.messages must have total/inter_chip/by_type"
            )
        cp = d.get("critical_path")
        if not isinstance(cp, dict) or not isinstance(
            cp.get("top_edges"), list
        ):
            raise ProfileError(
                f"{ctx}.critical_path.top_edges must be a list"
            )
        for e in cp["top_edges"]:
            if not isinstance(e, dict) or not all(
                k in e for k in ("kind", "from_tid", "to_tid", "duration")
            ):
                raise ProfileError(
                    f"{ctx}.critical_path edges need "
                    f"kind/from_tid/to_tid/duration"
                )
            if e["duration"] < 0:
                raise ProfileError(f"{ctx}: negative critical-path edge")
