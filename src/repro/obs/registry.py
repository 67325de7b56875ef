"""Metrics registry: named counters, gauges and histograms.

The registry is the collection point of the telemetry subsystem
(`repro.obs`).  Metric names are hierarchical dotted paths
(``lcu.core3.acquires``, ``net.hub_out1.busy_cycles``) so reports group
naturally by subsystem.  Three metric kinds:

* :class:`Counter` — a monotonically increasing integer/float.  The
  instrumentation layer (:mod:`repro.obs.instrument`) *pulls* most
  counters out of the components' existing ad-hoc stats at harvest time,
  so an un-instrumented run pays nothing.
* :class:`Gauge` — a point-in-time value, either set explicitly or read
  through a callback.  Gauges can be *sampled* periodically on the
  simulator clock, producing deterministic time series (same seed, same
  series).
* Histograms reuse :class:`repro.sim.stats.Histogram`, so harness
  latency distributions merge across seeds and export percentile
  summaries.

Zero-cost contract: nothing in the simulator references a registry
unless one is explicitly attached; sampling schedules simulator events
only while :meth:`MetricsRegistry.start_sampling` is active.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.stats import Histogram

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+([.\-][A-Za-z0-9_\-]+)*$")


class MetricError(ValueError):
    """Illegal metric registration (bad name, kind collision, ...)."""


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise MetricError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


#: legal cross-shard gauge merge policies (see ``Gauge.merge``)
GAUGE_MERGE_POLICIES = ("last", "max", "min", "sum", "skip")


class Gauge:
    """Point-in-time value, explicit (:meth:`set`) or callback-backed.

    ``merge`` declares how the sweep runner combines this gauge across
    shard registries (:meth:`MetricsRegistry.merge_state`):

    * ``"last"`` (default) — last writer wins, in spec order: the merged
      value is the final shard's reading, exactly what a serial run
      would have left behind.
    * ``"max"`` / ``"min"`` — watermark gauges (peak queue depth,
      worst-case overtake count) keep the extreme across shards.
    * ``"sum"`` — additive point-in-time values.
    * ``"skip"`` — excluded from :meth:`MetricsRegistry.to_state`
      entirely, for gauges that are only meaningful live (callback
      reads of a machine that no longer exists).
    """

    __slots__ = ("name", "fn", "_value", "merge")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None,
                 merge: str = "last") -> None:
        if merge not in GAUGE_MERGE_POLICIES:
            raise MetricError(
                f"gauge {name}: unknown merge policy {merge!r}; "
                f"expected one of {GAUGE_MERGE_POLICIES}"
            )
        self.name = name
        self.fn = fn
        self.merge = merge
        self._value: float = 0.0

    def set(self, value: float) -> None:
        self.fn = None
        self._value = value

    def read(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name})"


class MetricsRegistry:
    """Hierarchically named counters/gauges/histograms + gauge sampling."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: gauge name -> list of (sim time, value) samples
        self.series: Dict[str, List[Tuple[int, float]]] = {}
        self._sample_gen = 0          # invalidates in-flight sample events
        self._sampling = False
        #: (name, gauge) in name order; rebuilt after a gauge is added
        self._sample_rows: Optional[List[Tuple[str, Gauge]]] = None
        #: metric kind -> the tables a new name of that kind must avoid
        self._other_kinds = {
            "counter": (self._gauges, self._histograms),
            "gauge": (self._counters, self._histograms),
            "histogram": (self._counters, self._gauges),
        }

    # ------------------------------------------------------------------ #
    # registration

    def _check_name(self, name: str, kind: str) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for table in self._other_kinds[kind]:
            if name in table:
                raise MetricError(
                    f"metric {name!r} already registered as a different kind"
                )

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        c = self._counters.get(name)
        if c is None:
            self._check_name(name, "counter")
            c = self._counters[name] = Counter(name)
        return c

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None,
        merge: Optional[str] = None,
    ) -> Gauge:
        """Get or create the gauge ``name``.  Passing ``fn`` (re)binds the
        callback — instrumentation re-binds gauges when a harness runs
        several machines under one registry.  Passing ``merge`` (re)binds
        the cross-shard merge policy (see :class:`Gauge`); omitted, an
        existing gauge keeps its policy and a new one defaults to
        ``"last"``."""
        g = self._gauges.get(name)
        if g is None:
            self._check_name(name, "gauge")
            g = self._gauges[name] = Gauge(
                name, fn, merge=merge if merge is not None else "last"
            )
            self._sample_rows = None
            return g
        if fn is not None:
            g.fn = fn
        if merge is not None:
            if merge not in GAUGE_MERGE_POLICIES:
                raise MetricError(
                    f"gauge {name}: unknown merge policy {merge!r}; "
                    f"expected one of {GAUGE_MERGE_POLICIES}"
                )
            g.merge = merge
        return g

    def histogram(self, name: str, bucket_width: int = 100) -> Histogram:
        """Get or create the histogram ``name``.  A second registration
        must use the same bucket width (buckets could not merge)."""
        h = self._histograms.get(name)
        if h is None:
            self._check_name(name, "histogram")
            h = self._histograms[name] = Histogram(bucket_width=bucket_width)
        elif h.bucket_width != bucket_width:
            raise MetricError(
                f"histogram {name!r} registered with bucket_width="
                f"{h.bucket_width}, requested {bucket_width}"
            )
        return h

    @property
    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    # ------------------------------------------------------------------ #
    # sampling

    def sample(self, now: int) -> None:
        """Record one (now, value) point for every registered gauge, in
        name order."""
        rows = self._sample_rows
        if rows is None:
            rows = self._sample_rows = sorted(self._gauges.items())
        series = self.series
        for name, g in rows:
            points = series.get(name)
            if points is None:
                points = series[name] = []
            # Gauge.read() inlined: it runs for every gauge every tick
            fn = g.fn
            points.append((now, float(fn()) if fn is not None else g._value))

    def start_sampling(self, sim, interval: int) -> None:
        """Sample all gauges every ``interval`` cycles of ``sim``.  The
        schedule lives on the simulator's event queue; call
        :meth:`stop_sampling` (or attach to a fresh simulator) to stop.
        The first sample fires ``interval`` cycles from now."""
        if interval <= 0:
            raise MetricError(f"sample interval must be positive: {interval}")
        self._sample_gen += 1
        self._sampling = True
        gen = self._sample_gen

        def tick() -> None:
            if not self._sampling or self._sample_gen != gen:
                return
            self.sample(sim.now)
            sim.after(interval, tick)

        sim.after(interval, tick)

    def stop_sampling(self) -> None:
        """Stop periodic sampling.  Idempotent: safe before any
        :meth:`start_sampling` and safe to call repeatedly.  Any
        in-flight tick becomes inert (generation bump), so stopping
        mid-run leaves no live events behind."""
        self._sampling = False
        self._sample_gen += 1

    @property
    def is_sampling(self) -> bool:
        """Whether a periodic sampling schedule is currently active."""
        return self._sampling

    # ------------------------------------------------------------------ #
    # export

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump: the ``metrics`` section of a RunReport."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.read() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
            "series": {
                name: [[t, v] for t, v in pts]
                for name, pts in sorted(self.series.items())
            },
        }

    # ------------------------------------------------------------------ #
    # cross-process state transfer (the sweep runner's merge path)

    def to_state(self) -> Dict[str, Any]:
        """Exact, mergeable registry state (full float precision).

        Unlike :meth:`to_dict` — which emits lossy histogram *summaries*
        for reports — this dump carries raw buckets and accumulator
        moments, so a parent process can fold many shard registries
        together with :meth:`merge_state` and only then summarize.
        Gauges travel as ``{value, merge}`` pairs, merged under their
        declared policy (last-writer-wins in spec order by default,
        ``max``/``min``/``sum`` for watermarks and additive values);
        a gauge registered with ``merge="skip"`` is excluded.  Series
        (already (time, value) logs) transfer verbatim.
        """
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": g.read(), "merge": g.merge}
                for name, g in sorted(self._gauges.items())
                if g.merge != "skip"
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self._histograms.items())
            },
            "series": {
                name: [[t, v] for t, v in pts]
                for name, pts in sorted(self.series.items())
            },
        }

    def merge_state(self, state: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`to_state` dump into this registry: counters add,
        gauges combine under their declared merge policy, histograms
        merge bucket-exactly (same-width check included), series
        concatenate in call order.  Deterministic: merging shard states
        in a fixed order always yields the same registry, which is what
        makes the parallel sweep byte-identical to the serial one.
        States dumped before gauges carried merge policies (no
        ``gauges`` table) still merge fine.  Returns ``self``."""
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, spec in state.get("gauges", {}).items():
            value = spec["value"]
            policy = spec.get("merge", "last")
            fresh = name not in self._gauges
            g = self.gauge(name, merge=policy)
            if policy == "skip":
                continue
            if fresh or policy == "last":
                g.set(value)
            elif policy == "max":
                g.set(max(g.read(), value))
            elif policy == "min":
                g.set(min(g.read(), value))
            elif policy == "sum":
                g.set(g.read() + value)
        for name, h in state.get("histograms", {}).items():
            self.histogram(
                name, bucket_width=h["bucket_width"]
            ).merge(Histogram.from_dict(h))
        for name, pts in state.get("series", {}).items():
            self.series.setdefault(name, []).extend(
                (t, v) for t, v in pts
            )
        return self
