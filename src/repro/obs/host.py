"""Host-performance observatory: where does *host* time go?

``repro.obs`` measures the simulated machine; this module measures the
simulator itself.  It is the evidence-gathering half of the engine-speed
roadmap item: before rewriting the discrete-event core we want the same
measurement discipline the paper applies to lock fairness applied to our
own hot path.

Three pieces:

* :class:`HostProfiler` — the attribution sink that takes the engine's
  dispatch slot (:attr:`repro.sim.engine.Simulator.dispatch`).  Each
  event handler runs inside :meth:`HostProfiler.dispatch`, which charges
  its host time to the handler's *subsystem* (classified once per code
  object from the handler's defining module — ``repro.net`` -> ``net``,
  ``repro.lcu`` -> ``lcu``, ...).  The time probes take after an event
  goes to ``obs`` (as do sampling ticks, which are ``repro.obs``
  handlers), and the time between one handler and the next that no
  probe took goes to ``engine`` (queue ops, bound checks).  Because the
  charge intervals tile the profiled stretch, per-subsystem totals sum
  to ``total_ns`` *by construction*.  Per-handler totals feed a folded-
  stack export for host flamegraphs and the ``host`` section of
  RunReport schema v3.
* :func:`env_fingerprint` — the environment stamp every bench record
  carries (python version/implementation, platform, CPU count) so a
  trajectory mixing machines is visible instead of silently noisy.
* The **bench trajectory** schema (``repro.bench-trajectory``) —
  the machine-readable, append-only record list behind
  ``BENCH_engine.json`` and ``python -m repro bench``; see
  :mod:`repro.harness.bench` for the runner that produces records.

Zero-cost contract: nothing here is imported by the simulator; with no
profiler attached the dispatch slot is empty and ``--host-prof`` off
costs one None-check per event.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.engine import SimulationError

#: attribution buckets, in report order.  ``engine`` is the event loop
#: itself; ``obs`` is observability overhead (probes, sampling ticks,
#: span bookkeeping) charged to its own bucket so telemetry can never
#: masquerade as simulation work; ``other`` catches handlers defined
#: outside the repro package (tests, examples, ad-hoc scripts).
SUBSYSTEMS = (
    "engine", "net", "mem", "lcu", "ssb", "stm", "locks", "cpu",
    "apps", "harness", "obs", "check", "faults", "other",
)

#: second component of a ``repro.*`` module path -> subsystem bucket.
_PKG_TO_SUBSYSTEM = {
    "sim": "engine",
    "net": "net",
    "mem": "mem",
    "lcu": "lcu",
    "ssb": "ssb",
    "stm": "stm",
    "locks": "locks",
    "cpu": "cpu",
    "apps": "apps",
    "harness": "harness",
    "obs": "obs",
    "check": "check",
    "faults": "faults",
}


class HostProfileError(ValueError):
    """Malformed host section / bench trajectory."""


def classify_module(module: Optional[str]) -> str:
    """Map a handler's defining module to its attribution bucket."""
    if not module:
        return "other"
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    return _PKG_TO_SUBSYSTEM.get(parts[1], "other")


class HostProfiler:
    """Charges host nanoseconds to subsystems and per-event handlers.

    :meth:`dispatch` (the simulator's dispatch slot while attached) reads
    the clock around each handler and calls :meth:`charge` (loop and
    probe intervals) and :meth:`charge_event` (handler intervals); both
    are a couple of dict operations, which is the entire per-event
    overhead of ``--host-prof``.  Handler classification is cached per
    code object, so the string work happens once per handler *kind*, not
    per event.

    ``engine`` is measured from :meth:`attach`: it covers the loop's
    work between handlers and, between two ``run()`` calls, whatever the
    caller does while the profiler stays attached.
    """

    #: host clock, overridable in tests for deterministic charging
    clock: Callable[[], int] = staticmethod(time.perf_counter_ns)

    def __init__(self) -> None:
        self.subsystems: Dict[str, int] = {}
        #: handler qualname -> [subsystem, ns, events]
        self._handlers: Dict[str, List[Any]] = {}
        self.total_ns: int = 0
        #: classification cache keyed by code object (closures share one)
        self._cache: Dict[Any, Tuple[str, str]] = {}
        self._sims: List[Any] = []
        #: clock reading at the end of the last charged interval
        self._mark: int = 0
        #: engine event-queue stats folded in at detach time
        self.engine_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # attachment

    def attach(self, sim) -> None:
        """Take ``sim``'s dispatch slot and time its probes."""
        current = sim.dispatch
        if current is not None and getattr(current, "__self__", None) is not self:
            raise SimulationError("the simulator's dispatch slot is taken")
        sim.dispatch = self.dispatch
        if not isinstance(sim._probes, _TimedProbes):
            sim._probes = _TimedProbes(self, sim._probes)
        self._mark = self.clock()
        if sim not in self._sims:
            self._sims.append(sim)

    def detach(self) -> None:
        """Detach from every simulator, folding each one's event-queue
        stats (:meth:`~repro.sim.engine.Simulator.engine_stats`) into
        :attr:`engine_stats` (sums; depth peak as max, depth mean
        event-weighted).  Idempotent."""
        for sim in self._sims:
            self._merge_engine_stats(sim.engine_stats())
            sim.dispatch = None
            sim._probes = list.copy(sim._probes)  # not via __iter__
        self._sims = []

    def dispatch(self, now: int, fn: Callable[[], None]) -> None:
        """Run one event, charging the time since the previous handler
        (or probe pass) to ``engine`` and the handler's own time to its
        subsystem."""
        clock = self.clock
        t0 = clock()
        self.charge("engine", t0 - self._mark)
        fn()
        t1 = clock()
        self.charge_event(fn, t1 - t0)
        self._mark = t1

    def _merge_engine_stats(self, stats: Dict[str, float]) -> None:
        acc = self.engine_stats
        old_events = acc.get("events_processed", 0)
        new_events = stats.get("events_processed", 0)
        for key, value in stats.items():
            if key == "queue_depth_peak":
                acc[key] = max(acc.get(key, 0), value)
            elif key == "queue_depth_mean":
                total = old_events + new_events
                if total:
                    acc[key] = (
                        acc.get(key, 0.0) * old_events + value * new_events
                    ) / total
            else:
                acc[key] = acc.get(key, 0) + value

    # ------------------------------------------------------------------ #
    # charging

    def charge(self, subsystem: str, ns: int) -> None:
        """Charge ``ns`` host nanoseconds to ``subsystem``."""
        if ns < 0:  # non-monotonic clock hiccup: drop, never go negative
            return
        self.total_ns += ns
        self.subsystems[subsystem] = self.subsystems.get(subsystem, 0) + ns

    def charge_event(self, fn: Callable[[], None], ns: int) -> None:
        """Charge ``ns`` to the subsystem and handler that ``fn``
        belongs to.

        Classification is cached: per code object for plain functions
        and closures, per (code, owner class) for bound methods — the
        slotted-dispatch rework schedules bound methods and callable
        objects where closures used to be, and a bound method's
        *function* can live in a different module than the object it is
        bound to (mixins, monkeypatched handlers), so when the function
        module classifies ``other`` the owner's class module decides.
        Builtin bound methods (``deque.popleft`` and friends) have no
        ``__code__`` at all and classify purely by owner class.
        """
        owner = getattr(fn, "__self__", None)
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        if code is not None:
            key = code if owner is None else (code, type(owner))
        elif owner is not None:  # builtin bound method
            key = (type(owner), getattr(fn, "__name__", ""))
        else:  # callable object
            key = type(fn)
        ent = self._cache.get(key)
        if ent is None:
            if code is not None:
                module = getattr(func, "__module__", None)
                qual = getattr(func, "__qualname__", repr(fn))
                sub = classify_module(module)
                if sub == "other" and owner is not None:
                    sub = classify_module(type(owner).__module__)
            elif owner is not None:
                cls = type(owner)
                qual = (cls.__qualname__ + "."
                        + (getattr(fn, "__name__", None) or "?"))
                sub = classify_module(cls.__module__)
            else:  # callable object: classify by its class
                cls = type(fn)
                qual = cls.__qualname__ + ".__call__"
                sub = classify_module(cls.__module__)
            ent = self._cache[key] = (sub, qual)
        subsystem, qual = ent
        if ns < 0:
            return
        self.total_ns += ns
        self.subsystems[subsystem] = self.subsystems.get(subsystem, 0) + ns
        h = self._handlers.get(qual)
        if h is None:
            self._handlers[qual] = [subsystem, ns, 1]
        else:
            h[1] += ns
            h[2] += 1

    # ------------------------------------------------------------------ #
    # export

    @property
    def handlers(self) -> Dict[str, Dict[str, Any]]:
        return {
            qual: {"subsystem": sub, "ns": ns, "events": events}
            for qual, (sub, ns, events) in sorted(self._handlers.items())
        }

    def to_dict(self) -> Dict[str, Any]:
        """The ``host`` section of a RunReport (schema v3)."""
        out: Dict[str, Any] = {
            "enabled": True,
            "total_ns": self.total_ns,
            "subsystems": {
                name: ns for name, ns in sorted(self.subsystems.items())
            },
            "handlers": self.handlers,
        }
        if self.engine_stats:
            out["engine"] = dict(self.engine_stats)
        return out

    def folded(self) -> str:
        """Folded-stack lines (``host;<subsystem>;<handler> <ns>``) for
        flamegraph.pl / speedscope, one frame path per handler plus a
        synthetic frame for unattributed loop/probe time."""
        rows: Dict[str, int] = {}
        for qual, (sub, ns, _events) in self._handlers.items():
            rows[f"host;{sub};{qual}"] = rows.get(f"host;{sub};{qual}", 0) + ns
        attributed: Dict[str, int] = {}
        for _path, _ns in rows.items():
            sub = _path.split(";", 2)[1]
            attributed[sub] = attributed.get(sub, 0) + _ns
        for sub, ns in self.subsystems.items():
            rest = ns - attributed.get(sub, 0)
            if rest > 0:
                label = "loop" if sub == "engine" else "overhead"
                rows[f"host;{sub};[{label}]"] = rest
        return "".join(
            f"{path} {ns}\n" for path, ns in sorted(rows.items()) if ns > 0
        )

    def write_folded(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.folded())

    def summarize(self, top: int = 8) -> str:
        """Human-readable digest for the CLI."""
        lines = [f"host time: {self.total_ns / 1e6:.1f} ms attributed"]
        total = self.total_ns or 1
        for name, ns in sorted(
            self.subsystems.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {name:8s} {ns / 1e6:9.2f} ms  {100.0 * ns / total:5.1f}%"
            )
        hot = sorted(
            self._handlers.items(), key=lambda kv: -kv[1][1]
        )[:top]
        if hot:
            lines.append(f"hottest handlers ({len(hot)}):")
            for qual, (sub, ns, events) in hot:
                per = ns / events if events else 0.0
                lines.append(
                    f"  {sub:7s} {qual:44.44s} {ns / 1e6:8.2f} ms  "
                    f"{events:>8d} ev  {per:6.0f} ns/ev"
                )
        eng = self.engine_stats
        if eng:
            lines.append(
                "event queue: "
                f"{eng.get('heap_pushes', 0):.0f} pushes, "
                f"{eng.get('heap_pops', 0):.0f} pops, "
                f"depth peak {eng.get('queue_depth_peak', 0):.0f} / "
                f"mean {eng.get('queue_depth_mean', 0.0):.1f}; "
                f"signals {eng.get('signal_waits', 0):.0f} waits / "
                f"{eng.get('signal_cancels', 0):.0f} cancels / "
                f"{eng.get('signal_fires', 0):.0f} fires"
            )
        return "\n".join(lines)


class _TimedProbes(list):
    """The probe list of a profiled simulator.  The engine iterates it
    once after every event; the iteration itself charges the time the
    probes take to ``obs``.  An empty list is falsy, so the engine skips
    it (and this charge) as it skips an empty plain list."""

    __slots__ = ("host",)

    def __init__(self, host: HostProfiler, probes) -> None:
        super().__init__(probes)
        self.host = host

    def __iter__(self):
        host = self.host
        t0 = host.clock()
        host.charge("engine", t0 - host._mark)
        yield from list.__iter__(self)
        t1 = host.clock()
        host.charge("obs", t1 - t0)
        host._mark = t1


# ---------------------------------------------------------------------- #
# host-section validation (RunReport schema v3)

_NUMBER = (int, float)


def validate_host_section(host: Any) -> None:
    """Raise :class:`HostProfileError` unless ``host`` is a well-formed
    ``host`` section of a v3 RunReport."""
    errors: List[str] = []
    if not isinstance(host, dict):
        raise HostProfileError("host section must be an object")
    if not isinstance(host.get("enabled"), bool):
        errors.append("host.enabled must be a boolean")
    if not isinstance(host.get("total_ns"), _NUMBER) or isinstance(
        host.get("total_ns"), bool
    ):
        errors.append("host.total_ns must be a number")
    subs = host.get("subsystems")
    if not isinstance(subs, dict):
        errors.append("host.subsystems must be an object")
    else:
        for name, ns in subs.items():
            if not isinstance(ns, _NUMBER) or isinstance(ns, bool):
                errors.append(f"host.subsystems[{name!r}] must be a number")
    handlers = host.get("handlers")
    if handlers is not None:
        if not isinstance(handlers, dict):
            errors.append("host.handlers must be an object")
        else:
            for qual, h in handlers.items():
                if not isinstance(h, dict) or not all(
                    isinstance(h.get(k), _NUMBER) and
                    not isinstance(h.get(k), bool)
                    for k in ("ns", "events")
                ):
                    errors.append(
                        f"host.handlers[{qual!r}] must have numeric "
                        f"ns/events"
                    )
    engine = host.get("engine")
    if engine is not None and not isinstance(engine, dict):
        errors.append("host.engine must be an object")
    if errors:
        raise HostProfileError("; ".join(errors))


# ---------------------------------------------------------------------- #
# environment fingerprint

def env_fingerprint() -> Dict[str, Any]:
    """The environment stamp carried by every bench-trajectory record.
    Two records with different fingerprints are still diffable, but
    ``repro diff --host`` warns: cross-machine host numbers are a
    comparison of machines, not of code."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


def fingerprint_mismatches(
    old: Dict[str, Any], new: Dict[str, Any]
) -> List[Tuple[str, Any, Any]]:
    """Keys on which two environment fingerprints disagree."""
    keys = sorted(set(old) | set(new))
    return [
        (k, old.get(k), new.get(k))
        for k in keys if old.get(k) != new.get(k)
    ]


# ---------------------------------------------------------------------- #
# bench trajectory (the BENCH_*.json record-list schema)

TRAJECTORY_SCHEMA = "repro.bench-trajectory"
TRAJECTORY_VERSION = 1


def empty_trajectory() -> Dict[str, Any]:
    return {
        "schema": TRAJECTORY_SCHEMA,
        "version": TRAJECTORY_VERSION,
        "records": [],
    }


def is_trajectory(obj: Any) -> bool:
    return isinstance(obj, dict) and obj.get("schema") == TRAJECTORY_SCHEMA


def validate_record(record: Any) -> None:
    """Raise :class:`HostProfileError` unless ``record`` is one valid
    trajectory record."""
    errors: List[str] = []
    if not isinstance(record, dict):
        raise HostProfileError("record must be an object")
    if not isinstance(record.get("env"), dict):
        errors.append("record.env must be an object (env_fingerprint)")
    cells = record.get("cells")
    if not isinstance(cells, list):
        errors.append("record.cells must be a list")
    else:
        for i, cell in enumerate(cells):
            if not isinstance(cell, dict):
                errors.append(f"record.cells[{i}] must be an object")
                continue
            for key in ("lock", "model"):
                if not isinstance(cell.get(key), str):
                    errors.append(f"record.cells[{i}].{key} must be a string")
            for key in ("threads", "cycles_per_host_sec",
                        "simulated_cycles"):
                v = cell.get(key)
                if not isinstance(v, _NUMBER) or isinstance(v, bool):
                    errors.append(f"record.cells[{i}].{key} must be a number")
            if not isinstance(cell.get("engine"), dict):
                errors.append(f"record.cells[{i}].engine must be an object")
            if "host" in cell:
                try:
                    validate_host_section(cell["host"])
                except HostProfileError as exc:
                    errors.append(f"record.cells[{i}].{exc}")
    label = record.get("label")
    if label is not None and not isinstance(label, str):
        errors.append("record.label must be a string")
    report = record.get("report")
    if report is not None:
        from repro.obs.report import ReportValidationError, validate_run_report
        try:
            validate_run_report(report)
        except ReportValidationError as exc:
            errors.append(f"record.report: {exc}")
    if errors:
        raise HostProfileError("; ".join(errors))


def validate_trajectory(obj: Any) -> None:
    """Raise :class:`HostProfileError` unless ``obj`` is a valid
    trajectory document."""
    if not isinstance(obj, dict):
        raise HostProfileError("trajectory must be a JSON object")
    if obj.get("schema") != TRAJECTORY_SCHEMA:
        raise HostProfileError(f"schema must be {TRAJECTORY_SCHEMA!r}")
    if obj.get("version") != TRAJECTORY_VERSION:
        raise HostProfileError(f"version must be {TRAJECTORY_VERSION}")
    records = obj.get("records")
    if not isinstance(records, list):
        raise HostProfileError("records must be a list")
    for i, record in enumerate(records):
        try:
            validate_record(record)
        except HostProfileError as exc:
            raise HostProfileError(f"records[{i}]: {exc}") from None


def load_trajectory(path: str) -> Dict[str, Any]:
    """Read and validate a trajectory; a missing file is an empty one."""
    if not os.path.exists(path):
        return empty_trajectory()
    with open(path) as f:
        obj = json.load(f)
    validate_trajectory(obj)
    return obj


def write_trajectory(path: str, trajectory: Dict[str, Any]) -> None:
    validate_trajectory(trajectory)
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=1, sort_keys=True)
        f.write("\n")


def append_record(path: str, record: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``record`` to the trajectory at ``path`` (created if
    missing) and write it back.  Appending is *label-idempotent*: a
    record carrying the same non-empty ``label`` as an existing one
    replaces it in place instead of duplicating the trajectory — re-
    running a labelled baseline refresh converges instead of growing.
    Returns the updated trajectory."""
    validate_record(record)
    trajectory = load_trajectory(path)
    label = record.get("label")
    replaced = False
    if label:
        for i, existing in enumerate(trajectory["records"]):
            if existing.get("label") == label:
                trajectory["records"][i] = record
                replaced = True
                break
    if not replaced:
        trajectory["records"].append(record)
    write_trajectory(path, trajectory)
    return trajectory


def latest_record(
    obj: Dict[str, Any], index: int = -1
) -> Dict[str, Any]:
    """Record ``index`` (default: last) of a trajectory document."""
    records = obj.get("records") or []
    if not records:
        raise HostProfileError("trajectory has no records")
    try:
        return records[index]
    except IndexError:
        raise HostProfileError(
            f"trajectory has {len(records)} record(s); "
            f"index {index} is out of range"
        ) from None
