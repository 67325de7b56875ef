"""Host time by layer for the traced benchmark run.

The traced run wraps each layer's entry points from outside the package
(class attributes are replaced, no file under ``src/`` changes) and
keeps a stack of open spans.  A layer's *self time* is the time its
spans cover minus the time covered by their child spans.  Every cell
runs inside a ``harness`` root span, so the self times of one cell add
up exactly to that cell's wall time: every span's duration is charged
once as self time and once as child time of its parent.

Work that no wrapper marks is charged to the innermost open span:
closures scheduled directly on the engine count as ``sim`` (inside
``Simulator.run``), lock-algorithm generator bodies as ``cpu`` (inside
``OS._advance``).

Wrappers must be installed before any ``Machine`` is built, because the
machine registers bound methods (``lrt.on_message``) with the network
when it is constructed.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "harness", "sim", "cpu", "net", "reliable", "mem", "lcu", "lrt",
    "check", "obs",
)

#: (layer, module, class, attribute) of every wrapped entry point
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator", "run"),
    ("cpu", "repro.cpu.os_sched", "OS", "_advance"),
    ("cpu", "repro.cpu.os_sched", "OS", "_execute"),
    ("cpu", "repro.cpu.os_sched", "_Guard", "__call__"),
    ("net", "repro.net.network", "Network", "send"),
    ("net", "repro.net.network", "_Transit", "__call__"),
    ("reliable", "repro.net.reliable", "ReliableLayer", "send"),
    ("reliable", "repro.net.reliable", "ReliableLayer", "on_wire"),
    ("mem", "repro.mem.memory", "MemorySystem", "access"),
    ("mem", "repro.mem.memory", "MemorySystem", "_on_message"),
    ("mem", "repro.mem.memory", "MemorySystem", "remote_rmw"),
    ("lcu", "repro.lcu.lcu", "LockControlUnit", "on_message"),
    ("lcu", "repro.lcu.lcu", "LockControlUnit", "instr_acquire"),
    ("lcu", "repro.lcu.lcu", "LockControlUnit", "instr_release"),
    ("lcu", "repro.lcu.lcu", "LockControlUnit", "instr_enqueue"),
    ("lrt", "repro.lcu.lrt", "LockReservationTable", "on_message"),
    ("check", "repro.check.invariants", "InvariantMonitor",
     "_on_lock_event"),
    ("check", "repro.check.invariants", "InvariantMonitor", "_on_hw_event"),
    ("check", "repro.check.invariants", "InvariantMonitor", "_probe"),
    ("obs", "repro.obs.fairness", "FairnessObservatory", "_on_event"),
    ("obs", "repro.obs.profile", "ContentionProfiler", "_on_algo_event"),
    ("obs", "repro.obs.profile", "ContentionProfiler", "_on_lcu_probe"),
    ("obs", "repro.obs.profile", "ContentionProfiler", "_on_lrt_probe"),
    ("obs", "repro.obs.profile", "ContentionProfiler", "_on_net_probe"),
)

#: counters summed over every Machine a cell builds
COUNTERS = (
    "events", "messages", "inter_chip_messages", "reliable_wire",
    "retransmits", "l1_hits", "l1_misses", "lcu_retries", "lrt_reclaims",
)


def _resolve(module: str, cls: str, attr: str) -> Optional[Tuple[type, Any]]:
    try:
        owner = getattr(importlib.import_module(module), cls)
    except (ImportError, AttributeError):
        return None
    fn = owner.__dict__.get(attr)
    return None if fn is None else (owner, fn)


def entry_name(module: str, cls: str, attr: str) -> str:
    return f"{module}.{cls}.{attr}"


def missing_entry_points() -> List[str]:
    """Entry points that do not resolve to a function defined on their
    class (renamed or moved code)."""
    return [
        entry_name(module, cls, attr)
        for _layer, module, cls, attr in ENTRY_POINTS
        if _resolve(module, cls, attr) is None
    ]


class LayerTracer:
    """Span stack, per-layer self time and call counts, and the counters
    of every Machine built while a cell runs."""

    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self._stack: List[List[int]] = []     # [start ns, child ns]
        self._saved: List[Tuple[type, str, Any]] = []
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.entry_calls: Dict[str, int] = {}
        self.harness_calls = 0
        #: layer -> its entry points that did not resolve (the layer is
        #: then reported as untraced)
        self.missing: Dict[str, List[str]] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.hub_utils: List[float] = []
        self._machines: List[Any] = []

    # -- installation ---------------------------------------------------- #

    def install(self) -> "LayerTracer":
        for layer, module, cls, attr in ENTRY_POINTS:
            name = entry_name(module, cls, attr)
            found = _resolve(module, cls, attr)
            if found is None:
                self.missing.setdefault(layer, []).append(name)
                continue
            owner, fn = found
            self.entry_calls[name] = 0
            self._patch(owner, attr, self._wrap(layer, name, fn))

        from repro.cpu.machine import Machine

        init = Machine.__init__
        machines = self._machines

        def capturing_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            machines.append(machine)

        self._patch(Machine, "__init__", capturing_init)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner: type, attr: str, fn: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, fn)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.entry_calls
        clock = self._clock

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- one cell -------------------------------------------------------- #

    def run_cell(self, fn: Callable[[], Any]) -> Tuple[Any, int]:
        """Call ``fn`` inside the ``harness`` root span, then harvest the
        counters of the machines it built.  Returns ``(fn(), wall ns)``."""
        if self._stack:
            raise RuntimeError("run_cell() re-entered")
        self._machines.clear()
        self.harness_calls += 1
        frame = [self._clock(), 0]
        self._stack.append(frame)
        try:
            result = fn()
        finally:
            wall = self._clock() - frame[0]
            self._stack.pop()
            self.self_ns["harness"] += wall - frame[1]
        for machine in self._machines:
            self._harvest(machine)
        self._machines.clear()
        return result, wall

    def _harvest(self, m) -> None:
        c = self.counters
        c["events"] += m.sim.events_processed
        c["messages"] += m.net.messages_sent
        c["inter_chip_messages"] += m.net.inter_chip_messages
        rel = m.net.reliable
        if rel is not None:
            # frames_sent counts retransmitted frames too
            c["reliable_wire"] += (
                rel.frames_sent + rel.acks_sent + rel.datagrams_sent
            )
            c["retransmits"] += rel.retransmits
        c["l1_hits"] += m.mem.l1_hits
        c["l1_misses"] += m.mem.l1_misses
        c["lcu_retries"] += sum(
            lcu.stats.get("retries_received", 0) for lcu in m.lcus
        )
        c["lrt_reclaims"] += sum(
            lrt.stats.get("reclaims", 0) for lrt in m.lrts
        )
        if m.config.chips > 1:
            self.hub_utils.append(m.net.hub_utilisation())

    # -- results --------------------------------------------------------- #

    def layer_calls(self) -> Dict[str, int]:
        calls = dict.fromkeys(LAYERS, 0)
        calls["harness"] = self.harness_calls
        for layer, module, cls, attr in ENTRY_POINTS:
            calls[layer] += self.entry_calls.get(
                entry_name(module, cls, attr), 0
            )
        return calls

    def to_dict(self) -> Dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "calls": self.layer_calls(),
            "entry_calls": dict(self.entry_calls),
            "missing": dict(self.missing),
            "counters": dict(self.counters),
            "hub_utils": list(self.hub_utils),
        }
