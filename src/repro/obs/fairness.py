"""Fairness & starvation observatory (``repro.obs.fairness``).

The paper's headline claim is *fairness*, so the repo needs more than
end-of-run aggregates: this module turns every lock acquisition into a
ledger entry and answers the time-resolved questions — who waited, who
was overtaken (and by whom), when did a waiter cross into starvation,
and how long was a latency SLO violated.

Three layers, all passive:

* :class:`OvertakeLedger` — the single source of truth for "what counts
  as an overtake": arrival order (request seq) vs grant order, with
  exact (victim, overtaker) attribution, per-mode-pair totals, and the
  reader-batch exemption (a reader joining an in-progress read batch may
  legally pass waiting writers on reader-preference hardware; the
  exemption is *recorded*, not hidden).  The conformance oracle
  (:class:`repro.check.oracle.RWLockOracle`) delegates its bounded-
  overtake accounting to this class, so the checker and the observatory
  can never disagree about what an overtake is.
* :class:`FairnessObservatory` — subscribes to three probe-bus topics:
  ``lock`` (the thread-level request/acquire/release/abandon events,
  with the lock's shared :class:`~repro.sim.bus.LockTable` of arrival
  order, waiters and holders), ``net`` through a bounded
  :class:`~repro.obs.spans.Tracer` ring (the *flight recorder*
  snapshotted into every :class:`StarvationAlert`) and ``ssb``
  (retry-storm attribution).  It maintains per-lock per-mode wait
  histograms (p50/p99/p999), a sliding completion window feeding live
  Jain-index / writer-share gauges, a longest-outstanding-waiter
  starvation watchdog, and per-lock SLO time-in-violation.
* the export surface — :meth:`FairnessObservatory.to_dict` produces the
  versioned ``fairness`` section of RunReport v4 (validated by
  :func:`validate_fairness`); :meth:`publish` folds counters, wait
  histograms and watermark gauges (``merge="max"``) into a
  :class:`~repro.obs.registry.MetricsRegistry`, which is what makes
  fairness data survive the multiprocess ``repro sweep`` merge.

Zero-cost contract: everything here runs on the *host* side of bus
callbacks.  Nothing schedules simulator events, so attaching an
observatory leaves simulated cycle counts bit-identical (pinned by the
overhead-guard test and by ``repro fairness``'s own first-cell check).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.spans import Tracer
from repro.sim.stats import Histogram, jain_fairness

FAIRNESS_SCHEMA = "repro.fairness"
FAIRNESS_VERSION = 1

#: bucket width (cycles) of the per-mode wait histograms — finer than the
#: harness acquire-latency histogram because tail attribution is the point
WAIT_BUCKET = 64

#: mode-pair keys of :attr:`OvertakeLedger.by_mode` ("<victim>_by_<grantee>")
MODE_PAIRS = (
    "reader_by_reader", "reader_by_writer",
    "writer_by_reader", "writer_by_writer",
)


class FairnessError(ValueError):
    """A fairness section does not conform to the schema."""


def _mode(write: bool) -> str:
    return "writer" if write else "reader"


# --------------------------------------------------------------------- #
# the ledger


class OvertakeLedger:
    """Arrival-order vs grant-order accounting for one lock.

    The rule (shared with the check oracle): when a grant goes to the
    requester with arrival sequence ``seq``, every *still-waiting*
    requester with an earlier sequence has been overtaken once more —
    unless it is ``excused`` (frozen by an injected fault; it could not
    have consumed the grant) or covered by the reader-batch exemption.

    Reader-batch exemption (``reader_batch_exempt=True``): a reader
    granted while readers already hold the lock is joining an
    in-progress read batch; passing waiting *writers* is the designed
    behaviour of reader-preference hardware (SSB, LRT overflow
    read-sharing), not a fairness bug.  Exempted passes are counted in
    :attr:`exempted` — visible, but they don't advance any victim's
    overtake count.  The oracle runs with the exemption off, keeping its
    historical (deliberately loose) budget byte-identical.
    """

    __slots__ = ("reader_batch_exempt", "counts", "pairs", "by_mode",
                 "total", "exempted", "max_overtake", "per_victim_max")

    def __init__(self, reader_batch_exempt: bool = False) -> None:
        self.reader_batch_exempt = reader_batch_exempt
        #: tid -> overtakes suffered since its current request (reset on
        #: grant/abandon, mirroring the oracle's ``overtaken`` dict)
        self.counts: Dict[int, int] = {}
        #: (victim tid, overtaker tid) -> total overtakes, run-lifetime
        self.pairs: Dict[Tuple[int, int], int] = {}
        self.by_mode: Dict[str, int] = {k: 0 for k in MODE_PAIRS}
        self.total = 0
        self.exempted = 0
        #: worst per-request overtake count seen on any waiter
        self.max_overtake = 0
        #: tid -> worst per-request overtake count it ever suffered
        self.per_victim_max: Dict[int, int] = {}

    def note_request(self, tid: int) -> None:
        """A new request entered the queue: open its overtake count."""
        self.counts.setdefault(tid, 0)

    def clear(self, tid: int) -> None:
        """The waiter was granted, abandoned, or died: close its count."""
        self.counts.pop(tid, None)

    def note_grant(
        self,
        tid: int,
        seq: int,
        write: bool,
        waiting: Dict[int, Tuple[int, bool, int]],
        excused: Optional[set] = None,
        read_held: bool = False,
    ) -> List[Tuple[int, int]]:
        """Record a grant to ``tid`` (arrival ``seq``, mode ``write``)
        over ``waiting``, a lock table's tid -> (arrival seq, write,
        request time) map; the grantee's own entry, if listed, is never
        earlier than ``seq`` and so is never charged.

        Returns the ``(victim, new_count)`` increments actually charged,
        in waiting order — the oracle applies its overtake bound to
        exactly this list.
        """
        increments: List[Tuple[int, int]] = []
        gmode = _mode(write)
        for other, (oseq, owrite, _t) in waiting.items():
            if oseq >= seq:
                continue
            if excused is not None and other in excused:
                continue
            if (self.reader_batch_exempt and not write and read_held
                    and owrite):
                # reader joining an active read batch past a waiting
                # writer: legal on reader-preference designs — recorded,
                # not charged
                self.exempted += 1
                continue
            count = self.counts.get(other, 0) + 1
            self.counts[other] = count
            if count > self.max_overtake:
                self.max_overtake = count
            if count > self.per_victim_max.get(other, 0):
                self.per_victim_max[other] = count
            pair = (other, tid)
            self.pairs[pair] = self.pairs.get(pair, 0) + 1
            self.by_mode[f"{_mode(owrite)}_by_{gmode}"] += 1
            self.total += 1
            increments.append((other, count))
        return increments

    def top_pairs(self, n: int = 8) -> List[Tuple[int, int, int]]:
        """The ``n`` worst (victim, overtaker, count) attributions."""
        ranked = sorted(
            self.pairs.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [(v, o, c) for (v, o), c in ranked[:n]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "max": self.max_overtake,
            "exempted": self.exempted,
            "by_mode": dict(self.by_mode),
            "top_pairs": [list(t) for t in self.top_pairs()],
        }


# --------------------------------------------------------------------- #
# starvation alerts


@dataclasses.dataclass
class StarvationAlert:
    """A waiter crossed the starvation bound while still waiting."""

    lock: str           # observatory lock label
    tid: int
    write: bool
    waited: int         # cycles outstanding when the watchdog fired
    t: int              # simulated time of detection
    bound: int          # the configured starvation bound
    events: List[str]   # flight-recorder ring snapshot (rendered records)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"StarvationAlert: {_mode(self.write)} tid {self.tid} on "
            f"{self.lock} waited {self.waited} cycles (bound {self.bound}) "
            f"at t={self.t}"
        )


# --------------------------------------------------------------------- #
# per-lock state


class _LockState:
    __slots__ = (
        "label", "table", "ledger", "alerted", "wait_hist",
        "per_thread", "grants", "abandons", "longest_wait",
        "slo_violations", "slo_excess", "slo_intervals", "slo_checked",
        "alerts_total", "ssb_failed_acquires", "floor",
    )

    def __init__(self, table, reader_batch_exempt: bool) -> None:
        self.label = f"{table.name}@{table.id:#x}"
        #: the lock's shared waiter/holder table (``lock`` bus topic)
        self.table = table
        self.ledger = OvertakeLedger(reader_batch_exempt=reader_batch_exempt)
        #: arrival seqs of the requests the watchdog already alerted on
        self.alerted: set = set()
        #: at most the request time of every waiter not yet alerted on,
        #: or None (unknown): the watchdog's scan skip
        self.floor: Optional[int] = None
        self.wait_hist = {
            "read": Histogram(bucket_width=WAIT_BUCKET),
            "write": Histogram(bucket_width=WAIT_BUCKET),
        }
        #: tid -> [grants, wait_total, wait_max]
        self.per_thread: Dict[int, List[int]] = {}
        self.grants = {"read": 0, "write": 0}
        self.abandons = 0
        self.longest_wait = 0
        self.slo_violations = 0
        self.slo_excess = 0
        #: (start, end) intervals during which an eventual grant was past
        #: its SLO deadline; unioned at export for time-in-violation
        self.slo_intervals: List[Tuple[int, int]] = []
        self.slo_checked = 0
        self.alerts_total = 0
        self.ssb_failed_acquires = 0


def _union_cycles(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of (start, end) intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


# --------------------------------------------------------------------- #
# the observatory


class FairnessObservatory:
    """Passive fairness instrumentation for any set of observed locks.

    Parameters
    ----------
    slo:
        per-acquisition latency target in cycles (None: no SLO tracking).
        A grant whose wait exceeded the target counts one violation, adds
        the overshoot to ``slo.excess_cycles``, and contributes the
        ``[deadline, grant]`` interval to ``slo.time_in_violation``.
    starvation_bound:
        cycles a waiter may be outstanding before the watchdog raises a
        :class:`StarvationAlert` (one per request, at the crossing).
    window:
        sliding completion-window length (cycles) behind the live
        ``fairness.window.jain`` / ``fairness.window.writer_share``
        gauges (sampled into registry time series like any gauge).
    ring_capacity:
        flight-recorder depth: the newest N network records kept for
        alert diagnosis (bounded deque; old records fall off).
    max_alert_details:
        alerts carried in full (with ring snapshot) per lock; further
        alerts only bump the counter.
    """

    def __init__(
        self,
        slo: Optional[int] = None,
        starvation_bound: int = 100_000,
        window: int = 50_000,
        ring_capacity: int = 64,
        max_alert_details: int = 16,
        reader_batch_exempt: bool = True,
    ) -> None:
        if slo is not None and slo <= 0:
            raise FairnessError(f"slo must be positive, got {slo}")
        if starvation_bound <= 0:
            raise FairnessError(
                f"starvation_bound must be positive, got {starvation_bound}"
            )
        self.slo = slo
        self.starvation_bound = starvation_bound
        self.window = window
        self.ring_capacity = ring_capacity
        self.max_alert_details = max_alert_details
        self.reader_batch_exempt = reader_batch_exempt
        self.alerts: List[StarvationAlert] = []
        self._locks: Dict[Any, _LockState] = {}
        self._ring: Optional[Tracer] = None
        self._machine = None
        #: (sim time, tid, write) completions inside the sliding window,
        #: and per tid and for writes their counts, kept as events enter
        #: and leave so a gauge read does not walk the window
        self._window_events: deque = deque()
        self._window_counts: Dict[int, int] = {}
        self._window_writes = 0

    # -- attachment ----------------------------------------------------- #

    def attach_machine(self, machine) -> "FairnessObservatory":
        """Subscribe to the ``lock`` and ``ssb`` bus topics and install
        the flight-recorder ring (a bounded network tracer).  Replaces
        any previous attachment (one machine at a time): the first is
        detached, final watchdog pass included."""
        self.detach()
        self._machine = machine
        self._ring = Tracer.attach(machine, capacity=self.ring_capacity)
        bus = machine.sim.bus
        bus.lock.append(self._on_event)
        bus.ssb.append(self._on_ssb_probe)
        return self

    def detach(self) -> None:
        """Leave the bus and remove the flight recorder.  Runs a final
        watchdog pass so waiters still starving at the end of the run
        are reported even if no further event would have fired."""
        if self._machine is not None:
            now = self._machine.sim.now
            for st in self._locks.values():
                self._check_starvation(st, now, None)
            bus = self._machine.sim.bus
            bus.lock.remove(self._on_event)
            bus.ssb.remove(self._on_ssb_probe)
        if self._ring is not None:
            self._ring.detach()
        self._machine = None

    def attach_registry(self, registry) -> "FairnessObservatory":
        """Register the live sliding-window gauges so periodic registry
        sampling captures fairness time series."""
        registry.gauge("fairness.window.jain", self.window_jain)
        registry.gauge("fairness.window.writer_share",
                       self.window_writer_share)
        return self

    # -- event intake ---------------------------------------------------- #

    def _on_event(self, event, lock, tid, write) -> None:
        now = self._machine.sim.now
        st = self._locks.get(lock.id)
        if st is None:
            st = self._locks[lock.id] = _LockState(
                lock, self.reader_batch_exempt
            )
        if event == "request":
            st.ledger.note_request(tid)
        elif event == "acquire":
            entry = lock.waiting.get(tid)
            if entry is None:       # raw-path mix-in: synthesize arrival
                seq, t_req = lock.seq, now
            else:
                seq, _w, t_req = entry
            st.ledger.clear(tid)
            st.ledger.note_grant(
                tid, seq, bool(write), lock.waiting,
                # only a reader's grant consults it
                read_held=not write and any(
                    not w for w in lock.holders.values()
                ),
            )
            wait = now - t_req
            mode = "write" if write else "read"
            st.wait_hist[mode].add(wait)
            st.grants[mode] += 1
            if wait > st.longest_wait:
                st.longest_wait = wait
            pt = st.per_thread.get(tid)
            if pt is None:
                pt = st.per_thread[tid] = [0, 0, 0]
            pt[0] += 1
            pt[1] += wait
            if wait > pt[2]:
                pt[2] = wait
            if self.slo is not None:
                st.slo_checked += 1
                if wait > self.slo:
                    st.slo_violations += 1
                    st.slo_excess += wait - self.slo
                    st.slo_intervals.append((t_req + self.slo, now))
                    if len(st.slo_intervals) > 4096:
                        merged = _merge_intervals(st.slo_intervals)
                        st.slo_intervals = merged
            self._window_events.append((now, tid, bool(write)))
            counts = self._window_counts
            counts[tid] = counts.get(tid, 0) + 1
            if write:
                self._window_writes += 1
            self._prune_window(now)
        elif event == "abandon":
            st.ledger.clear(tid)
            st.abandons += 1
        # every event runs the watchdog; the table still holds the entry
        # a request replaces or a grant or abandon removes: skip it
        self._check_starvation(
            st, now, None if event in ("release", "enqueued") else tid
        )

    def _on_ssb_probe(self, event, addr, tid, write) -> None:
        if event == "acq_fail":
            st = self._locks.get(addr)
            if st is not None:
                st.ssb_failed_acquires += 1

    # -- watchdog -------------------------------------------------------- #

    def _check_starvation(self, st: _LockState, now: int,
                          skip: Optional[int]) -> None:
        # Every waiter not yet alerted on requested at or after the
        # floor: the last scan took the floor as their earliest request
        # time, and an entry added or replaced since carries its table
        # clock's later time.  So while the floor is within the bound,
        # a scan would find nothing.  The entry ``skip`` names leaves or
        # is replaced by this event, so it does not count.
        floor = st.floor
        if floor is not None and now - floor <= self.starvation_bound:
            return
        floor = None
        for tid, (seq, write, t_req) in st.table.waiting.items():
            if tid == skip or seq in st.alerted:
                continue
            waited = now - t_req
            if waited <= self.starvation_bound:
                if floor is None or t_req < floor:
                    floor = t_req
            else:
                st.alerted.add(seq)
                st.alerts_total += 1
                if st.alerts_total <= self.max_alert_details:
                    events = ([r.render() for r in self._ring.records]
                              if self._ring is not None else [])
                    self.alerts.append(StarvationAlert(
                        lock=st.label, tid=tid, write=bool(write),
                        waited=waited, t=now,
                        bound=self.starvation_bound, events=events,
                    ))
        st.floor = floor

    # -- sliding window --------------------------------------------------- #

    def _prune_window(self, now: int) -> None:
        horizon = now - self.window
        evts = self._window_events
        counts = self._window_counts
        while evts and evts[0][0] < horizon:
            _t, tid, write = evts.popleft()
            left = counts[tid] - 1
            if left:
                counts[tid] = left
            else:
                del counts[tid]
            if write:
                self._window_writes -= 1

    def window_jain(self) -> float:
        """Jain index over per-thread completions in the current window
        (integer counts, so their order does not change the index)."""
        return jain_fairness(list(self._window_counts.values()))

    def window_writer_share(self) -> float:
        """Writer share of completions in the current window."""
        if not self._window_events:
            return 0.0
        return self._window_writes / len(self._window_events)

    # -- export ---------------------------------------------------------- #

    def lock_summary(self, key: Any) -> Optional[Dict[str, Any]]:
        """The fairness dict of one lock by its ``lock_id`` key."""
        st = self._locks.get(key)
        return None if st is None else self._lock_dict(st)

    def _lock_dict(self, st: _LockState) -> Dict[str, Any]:
        def wait_summary(h: Histogram) -> Dict[str, float]:
            return {
                "count": h.acc.n,
                "mean": h.acc.mean,
                "max": h.acc.max if h.acc.max is not None else 0.0,
                "p50": 0.0 if h.empty else h.percentile(50),
                "p99": 0.0 if h.empty else h.percentile(99),
                "p999": 0.0 if h.empty else h.percentile(99.9),
            }

        grants = [pt[0] for pt in st.per_thread.values()]
        total_grants = st.grants["read"] + st.grants["write"]
        out: Dict[str, Any] = {
            "grants": dict(st.grants),
            "abandoned": st.abandons,
            "jain": jain_fairness(grants),
            "writer_share": (
                st.grants["write"] / total_grants if total_grants else 0.0
            ),
            "longest_wait": st.longest_wait,
            "wait": {
                "read": wait_summary(st.wait_hist["read"]),
                "write": wait_summary(st.wait_hist["write"]),
            },
            "per_thread": {
                str(tid): {
                    "grants": pt[0],
                    "wait_total": pt[1],
                    "wait_max": pt[2],
                    "overtaken_max": st.ledger.per_victim_max.get(tid, 0),
                }
                for tid, pt in sorted(st.per_thread.items())
            },
            "overtakes": st.ledger.to_dict(),
            "starvation": {
                "bound": self.starvation_bound,
                "alerts": st.alerts_total,
                "alerts_detail": [
                    a.to_dict() for a in self.alerts if a.lock == st.label
                ],
            },
            "slo": {
                "target": self.slo,
                "checked": st.slo_checked,
                "violations": st.slo_violations,
                "excess_cycles": st.slo_excess,
                "time_in_violation": _union_cycles(st.slo_intervals),
            },
        }
        if st.ssb_failed_acquires:
            out["ssb_failed_acquires"] = st.ssb_failed_acquires
        return out

    def to_dict(self) -> Dict[str, Any]:
        """The ``fairness`` section of a RunReport v4."""
        section = {
            "schema": FAIRNESS_SCHEMA,
            "version": FAIRNESS_VERSION,
            "params": {
                "slo": self.slo,
                "starvation_bound": self.starvation_bound,
                "window": self.window,
                "ring_capacity": self.ring_capacity,
            },
            "locks": {
                st.label: self._lock_dict(st)
                for _key, st in sorted(
                    self._locks.items(), key=lambda kv: kv[1].label
                )
            },
        }
        validate_fairness(section)
        return section

    def publish(self, registry) -> None:
        """Fold fairness data into ``registry`` — the mergeable surface
        (``repro sweep`` combines shard registries through
        ``to_state``/``merge_state``): counters add, wait histograms
        bucket-merge, watermarks survive as ``merge="max"`` gauges."""
        from repro.obs.instrument import _sanitize

        for _key, st in sorted(self._locks.items(),
                               key=lambda kv: kv[1].label):
            base = f"fairness.{_sanitize(st.label)}"
            registry.counter(f"{base}.grants.read").inc(st.grants["read"])
            registry.counter(f"{base}.grants.write").inc(st.grants["write"])
            registry.counter(f"{base}.abandoned").inc(st.abandons)
            led = st.ledger
            registry.counter(f"{base}.overtakes.total").inc(led.total)
            registry.counter(f"{base}.overtakes.exempted").inc(led.exempted)
            for pair, n in sorted(led.by_mode.items()):
                registry.counter(f"{base}.overtakes.{pair}").inc(n)
            registry.counter(f"{base}.starvation.alerts").inc(
                st.alerts_total
            )
            if self.slo is not None:
                registry.counter(f"{base}.slo.violations").inc(
                    st.slo_violations
                )
                registry.counter(f"{base}.slo.excess_cycles").inc(
                    st.slo_excess
                )
                registry.counter(f"{base}.slo.time_in_violation").inc(
                    _union_cycles(st.slo_intervals)
                )
            for mode in ("read", "write"):
                h = st.wait_hist[mode]
                if not h.empty:
                    registry.histogram(
                        f"{base}.wait.{mode}", bucket_width=h.bucket_width
                    ).merge(h)
            g = registry.gauge(f"{base}.max_overtake", merge="max")
            if led.max_overtake > g.read():
                g.set(led.max_overtake)
            g = registry.gauge(f"{base}.longest_wait", merge="max")
            if st.longest_wait > g.read():
                g.set(st.longest_wait)


def _merge_intervals(
    intervals: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Union a (start, end) interval list into disjoint sorted form."""
    merged: List[Tuple[int, int]] = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


# --------------------------------------------------------------------- #
# validation (RunReport v4 delegates here)

_NUMBER = (int, float)


def validate_fairness(section: Any) -> None:
    """Raise :class:`FairnessError` unless ``section`` is a valid
    ``repro.fairness`` v1 section."""
    errors: List[str] = []

    def err(msg: str) -> None:
        errors.append(msg)

    if not isinstance(section, dict):
        raise FairnessError("fairness section must be an object")
    if section.get("schema") != FAIRNESS_SCHEMA:
        err(f"schema must be {FAIRNESS_SCHEMA!r}")
    if section.get("version") != FAIRNESS_VERSION:
        err(f"version must be {FAIRNESS_VERSION}")
    locks = section.get("locks")
    if not isinstance(locks, dict):
        err("'locks' must be an object")
        locks = {}
    for label, d in locks.items():
        if not isinstance(d, dict):
            err(f"locks[{label!r}] must be an object")
            continue
        for key in ("grants", "wait", "per_thread", "overtakes",
                    "starvation", "slo"):
            if not isinstance(d.get(key), dict):
                err(f"locks[{label!r}].{key} must be an object")
        for key in ("jain", "writer_share", "longest_wait", "abandoned"):
            v = d.get(key)
            if not isinstance(v, _NUMBER) or isinstance(v, bool):
                err(f"locks[{label!r}].{key} must be a number")
        wait = d.get("wait")
        if isinstance(wait, dict):
            for mode in ("read", "write"):
                w = wait.get(mode)
                if not isinstance(w, dict):
                    err(f"locks[{label!r}].wait.{mode} must be an object")
                    continue
                for k in ("count", "mean", "max", "p50", "p99", "p999"):
                    v = w.get(k)
                    if not isinstance(v, _NUMBER) or isinstance(v, bool):
                        err(f"locks[{label!r}].wait.{mode}.{k} "
                            f"must be a number")
        ot = d.get("overtakes")
        if isinstance(ot, dict):
            for k in ("total", "max", "exempted"):
                v = ot.get(k)
                if not isinstance(v, _NUMBER) or isinstance(v, bool):
                    err(f"locks[{label!r}].overtakes.{k} must be a number")
    if errors:
        raise FairnessError("; ".join(errors))


def summarize_fairness(section: Dict[str, Any]) -> str:
    """Human-readable digest printed by the CLI when no report file is
    requested."""
    lines = []
    for label, d in section.get("locks", {}).items():
        ot = d["overtakes"]
        slo = d["slo"]
        lines.append(
            f"{label}: jain={d['jain']:.3f} "
            f"writer_share={d['writer_share']:.2f} "
            f"overtakes={ot['total']} (max {ot['max']}, "
            f"exempt {ot['exempted']}) "
            f"p999_wait(r/w)={d['wait']['read']['p999']:.0f}/"
            f"{d['wait']['write']['p999']:.0f} "
            f"starvation_alerts={d['starvation']['alerts']}"
        )
        if slo.get("target") is not None:
            lines.append(
                f"  slo {slo['target']} cyc: {slo['violations']}/"
                f"{slo['checked']} violations, "
                f"{slo['time_in_violation']} cycles in violation"
            )
    return "\n".join(lines) if lines else "(no lock activity observed)"
