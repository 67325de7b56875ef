"""Message ring and structured span tracing with Chrome trace-event export.

Both classes here subscribe to the ``net`` topic of the probe bus
(:mod:`repro.sim.bus`).  A :class:`Tracer` is a bounded ring of network
sends rendered as a ladder-style text dump — the flight recorder of the
invariant monitor and the fairness observatory::

    tracer = Tracer.attach(machine)
    ... run ...
    print(tracer.render(tracer.of_type(Grant)))

A :class:`SpanTracer` records *intervals* — lock-held windows, message
flights, transaction attempts — on named tracks.  Completed traces
export to the Chrome trace-event JSON format, so a run opens directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

    tracer = SpanTracer()
    tracer.attach(machine)            # message-flight spans + timebase
    ... run ...
    tracer.write_chrome_trace("t.json")

Spans are opened with :meth:`begin` (returns an id) and closed with
:meth:`end`; the id indirection works across generator-based thread
programs where ``with`` blocks cannot span ``yield`` points.  Open/close
mismatches raise :class:`SpanError`, and :meth:`check_closed` audits a
finished run.  Timestamps are simulator cycles (shown as microseconds by
trace viewers; the scale is faithful, the unit label is not).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import re
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    time: int
    src: Any
    dst: Any
    payload: Any

    def render(self) -> str:
        return (
            f"{self.time:>10d}  {_ep(self.src):>10s} -> {_ep(self.dst):<10s}"
            f"  {_payload(self.payload)}"
        )


def _payload(payload: Any) -> str:
    """``repr(payload)`` without object addresses.  Memory-system and
    SSB payloads are plain tuples holding completion callbacks (op
    guards, closures), whose default ``repr`` names an address that
    differs from process to process; the rest of the text stays."""
    text = repr(payload)
    if " at 0x" in text:
        # compiled on first use: only an alert snapshot renders
        text = re.sub(r" at 0x[0-9a-fA-F]+", "", text)
    return text


def _ep(ep: Any) -> str:
    if isinstance(ep, tuple) and len(ep) == 2:
        return f"{ep[0]}{ep[1]}"
    return str(ep)


#: builds a TraceRecord from a 4-tuple in C, skipping the generated
#: Python-level ``__new__`` on the per-message path
_new_record = tuple.__new__


class Tracer:
    """Bounded in-memory ring of a machine's network sends."""

    def __init__(self, capacity: int = 10_000) -> None:
        self.records: Deque[TraceRecord] = collections.deque(maxlen=capacity)
        self._sim = None

    @classmethod
    def attach(cls, machine, capacity: int = 10_000) -> "Tracer":
        """Record every send on ``machine``'s network until
        :meth:`detach`."""
        tracer = cls(capacity)
        tracer._sim = machine.sim
        machine.sim.bus.net.append(tracer._on_send)
        return tracer

    def detach(self) -> None:
        """Stop recording.  Idempotent."""
        if self._sim is not None:
            self._sim.bus.net.remove(self._on_send)
            self._sim = None

    def _on_send(self, src: Any, dst: Any, payload: Any) -> None:
        self.records.append(
            _new_record(TraceRecord, (self._sim.now, src, dst, payload))
        )

    def between(self, t0: int, t1: int) -> List[TraceRecord]:
        return [r for r in self.records if t0 <= r.time <= t1]

    def of_type(self, *types: type) -> List[TraceRecord]:
        return [r for r in self.records if isinstance(r.payload, types)]

    def render(self, records: Optional[Iterable[TraceRecord]] = None) -> str:
        recs = list(records) if records is not None else list(self.records)
        if not recs:
            return "(no trace records)"
        return "\n".join(r.render() for r in recs)

    def __len__(self) -> int:
        return len(self.records)


class SpanError(RuntimeError):
    """Span protocol misuse: unknown id, double close, leftover spans."""


@dataclasses.dataclass(init=False)
class Span:
    """One closed (or still-open) interval on a track.  Slotted, with
    the constructor written out (slotted fields take no class-level
    defaults): a run keeps one per message."""

    __slots__ = ("name", "cat", "track", "start", "end", "args")

    name: str
    cat: str
    track: Any
    start: int
    end: Optional[int]
    args: Dict[str, Any]

    def __init__(self, name: str, cat: str, track: Any, start: int,
                 end: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.args = {} if args is None else args

    @property
    def duration(self) -> int:
        if self.end is None:
            raise SpanError(f"span {self.name!r} still open")
        return self.end - self.start


class SpanTracer:
    """Collects spans against a simulator clock; exports Chrome JSON."""

    def __init__(self, sim=None, capacity: int = 1_000_000) -> None:
        self._sim = sim
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0
        self._open: Dict[int, Span] = {}
        self._next_id = 1
        self._topic: Optional[list] = None      # the bus list we are on
        #: endpoint -> track name / label of message spans
        self._tracks: Dict[Any, str] = {}
        self._labels: Dict[Any, str] = {}

    # ------------------------------------------------------------------ #
    # clock binding / network attachment

    def _now(self, ts: Optional[int]) -> int:
        if ts is not None:
            return ts
        if self._sim is None:
            raise SpanError("SpanTracer has no simulator bound; pass ts=")
        return self._sim.now

    def attach(self, machine) -> "SpanTracer":
        """Use ``machine``'s clock as the timebase and make every network
        message a ``net`` -category span from send to delivery; call
        :meth:`detach` to stop.  Attaching to a second machine detaches
        from the first."""
        self.detach()
        self._sim = machine.sim
        self._topic = machine.sim.bus.net
        self._topic.append(self._on_send)
        return self

    def detach(self) -> None:
        """Stop recording message spans.  Idempotent; the clock stays
        bound for spans the harness still closes."""
        if self._topic is not None:
            self._topic.remove(self._on_send)
            self._topic = None

    def _on_send(self, src: Any, dst: Any, payload: Any):
        # begin() inlined: this runs once per message
        track = self._tracks.get(src)
        if track is None:
            track = self._tracks[src] = f"net {_ep(src)}"
        label = self._labels.get(dst)
        if label is None:
            label = self._labels[dst] = _ep(dst)
        cls = type(payload)
        sid = self._next_id
        self._next_id = sid + 1
        self._open[sid] = Span(
            # protocol records are tuples too: only a plain tuple is a
            # memory-system message named by its tag
            str(payload[0]) if cls is tuple else cls.__name__,
            "net", track, self._sim.now, None, {"dst": label},
        )
        return functools.partial(self._close, sid)

    # ------------------------------------------------------------------ #
    # span protocol

    def begin(
        self,
        name: str,
        cat: str = "",
        track: Any = 0,
        ts: Optional[int] = None,
        **args: Any,
    ) -> int:
        """Open a span; returns its id for :meth:`end`."""
        sid = self._next_id
        self._next_id += 1
        self._open[sid] = Span(name, cat, track, self._now(ts), args=args)
        return sid

    def end(self, sid: int, ts: Optional[int] = None, **args: Any) -> Span:
        """Close span ``sid``.  Raises :class:`SpanError` for unknown ids
        (including ids already closed)."""
        span = self._close(sid, self._now(ts))
        if args:
            span.args.update(args)
        return span

    def _close(self, sid: int, t: Optional[int] = None) -> Span:
        """Close span ``sid`` at ``t`` (default: the bound clock's now);
        called bare, it is a message span's delivery continuation."""
        span = self._open.pop(sid, None)
        if span is None:
            raise SpanError(f"end of unknown or already-closed span id {sid}")
        span.end = self._sim.now if t is None else t
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def instant(
        self,
        name: str,
        cat: str = "",
        track: Any = 0,
        ts: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record a zero-duration marker."""
        t = self._now(ts)
        span = Span(name, cat, track, t, t, args)
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        else:
            self.dropped += 1

    @property
    def open_count(self) -> int:
        return len(self._open)

    def check_closed(self) -> None:
        """Raise :class:`SpanError` naming any spans left open — run this
        after a harness completes to catch instrumentation bugs."""
        if self._open:
            names = sorted({s.name for s in self._open.values()})
            raise SpanError(
                f"{len(self._open)} span(s) left open: {names[:10]}"
            )

    def abandon_open(self) -> int:
        """Drop any still-open spans (in-flight messages at the end of a
        bounded drain); returns how many were dropped."""
        n = len(self._open)
        self._open.clear()
        return n

    def flush_open(self, ts: Optional[int] = None, **args: Any) -> int:
        """Close every still-open span at ``ts`` (default: now), tagging
        it ``flushed=True``, and keep it in the trace.  Returns how many
        were flushed.

        This is the failure-path counterpart of :meth:`abandon_open`:
        when a run dies mid-flight — an invariant violation, a protocol
        error — the spans open at that instant are exactly the activity
        that was interrupted, so dropping them (the historical behaviour)
        discards the most diagnostic part of the trace.  The conformance
        subsystem calls this before letting an
        :class:`~repro.check.invariants.InvariantViolation` propagate."""
        t = self._now(ts)
        flushed = 0
        for sid in list(self._open):
            span = self._open.pop(sid)
            span.end = max(t, span.start)
            span.args.update(args)
            span.args["flushed"] = True
            if len(self.spans) < self.capacity:
                self.spans.append(span)
            else:
                self.dropped += 1
            flushed += 1
        return flushed

    # ------------------------------------------------------------------ #
    # export

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Render closed spans as a Chrome trace-event JSON object
        (Perfetto-loadable): one ``X`` (complete) event per span, plus
        ``M`` metadata naming the process and each track."""
        tracks: Dict[str, int] = {}
        events: List[Dict[str, Any]] = [
            {
                "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                "args": {"name": "repro simulation"},
            }
        ]

        def tid_of(track: Any) -> int:
            key = str(track)
            tid = tracks.get(key)
            if tid is None:
                tid = tracks[key] = len(tracks) + 1
                events.append({
                    "ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
                    "args": {"name": key},
                })
            return tid

        for s in self.spans:
            events.append({
                "ph": "X",
                "name": s.name,
                "cat": s.cat or "default",
                "pid": 0,
                "tid": tid_of(s.track),
                "ts": s.start,
                "dur": s.duration,
                "args": s.args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock_unit": "cycles", "dropped_spans": self.dropped},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome_trace(), f, indent=1, sort_keys=True)
            f.write("\n")


def validate_chrome_trace(obj: Any) -> None:
    """Structural check of a Chrome trace-event JSON object; raises
    ``ValueError`` describing the first problem found."""
    if not isinstance(obj, dict):
        raise ValueError("trace must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace missing 'traceEvents' list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "I"):
            raise ValueError(f"traceEvents[{i}]: unsupported phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise ValueError(f"traceEvents[{i}]: missing int {key!r}")
        if ph == "X":
            for key in ("name", "ts", "dur"):
                if key not in ev:
                    raise ValueError(f"traceEvents[{i}]: missing {key!r}")
            if ev["dur"] < 0:
                raise ValueError(f"traceEvents[{i}]: negative duration")
