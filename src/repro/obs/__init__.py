"""repro.obs — unified telemetry: metrics, spans, machine-readable reports.

The observability layer of the reproduction (see README "Observability"):

* :mod:`repro.obs.registry` — :class:`MetricsRegistry`: hierarchical
  counters / gauges / histograms with deterministic time-series gauge
  sampling driven by simulator events.
* :mod:`repro.obs.spans` — :class:`Tracer`: a bounded ring of network
  sends (the protocol flight recorder); :class:`SpanTracer`: interval
  tracing (lock-held windows, message flights, transactions) exported
  as Chrome trace-event JSON, loadable in Perfetto.
* :mod:`repro.obs.report` — the versioned ``RunReport`` JSON schema the
  harness emits (``--metrics-out``) and the CLI validates
  (``python -m repro report``).  Not re-exported: import it from the
  submodule.
* :mod:`repro.obs.instrument` — attaches gauges to a live machine and
  harvests every component's counters after a run; all instrumentation
  is pull-based, so uninstrumented runs pay nothing.
* :mod:`repro.obs.profile` — :class:`ContentionProfiler`: per-lock
  acquire-latency decomposition (enqueue → queue-wait → transfer →
  handoff → critical-section), queue-depth timelines, critical-path
  extraction, folded-stack / Chrome-trace export
  (``python -m repro profile``).
* :mod:`repro.obs.diff` — structural RunReport diffing with relative-
  threshold regression verdicts (``python -m repro diff``).  Not
  re-exported: import it from the submodule.
* :mod:`repro.obs.host` — environment fingerprints and the validator
  of the ``host`` section older (v3) reports carry.  Simulator speed
  comes from ``python perf/run.py``.
* :mod:`repro.obs.fairness` — :class:`FairnessObservatory`: passive
  fairness/starvation observatory — arrival-vs-grant overtake ledger,
  per-thread wait histograms, sliding-window Jain/writer-share series,
  starvation watchdog with a flight-recorder ring, per-lock SLO
  tracking; the ``fairness`` section of RunReport v4 and
  ``python -m repro fairness``.
"""

from repro.obs.fairness import (
    FairnessError,
    FairnessObservatory,
    OvertakeLedger,
    StarvationAlert,
    summarize_fairness,
    validate_fairness,
)
from repro.obs.host import (
    HostProfileError,
    env_fingerprint,
    validate_host_section,
)
from repro.obs.instrument import (
    attach_machine_metrics,
    finish_run,
    harvest_machine_metrics,
    harvest_stm_metrics,
)
from repro.obs.profile import (
    ContentionProfiler,
    ProfileError,
    validate_profile,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricError,
    MetricsRegistry,
)
from repro.obs.spans import (
    Span,
    SpanError,
    SpanTracer,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "MetricError",
    "SpanTracer", "Span", "SpanError", "validate_chrome_trace", "Tracer",
    "attach_machine_metrics", "harvest_machine_metrics",
    "harvest_stm_metrics", "finish_run",
    "ContentionProfiler", "ProfileError", "validate_profile",
    "HostProfileError", "validate_host_section", "env_fingerprint",
    "FairnessObservatory", "OvertakeLedger", "StarvationAlert",
    "FairnessError", "validate_fairness", "summarize_fairness",
]
