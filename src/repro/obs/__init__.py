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
  (``python -m repro report``).
* :mod:`repro.obs.instrument` — attaches gauges to a live machine and
  harvests every component's counters after a run; all instrumentation
  is pull-based, so uninstrumented runs pay nothing.
* :mod:`repro.obs.profile` — :class:`ContentionProfiler`: per-lock
  acquire-latency decomposition (enqueue → queue-wait → transfer →
  handoff → critical-section), queue-depth timelines, critical-path
  extraction, folded-stack / Chrome-trace export
  (``python -m repro profile``).
* :mod:`repro.obs.diff` — structural RunReport diffing with relative-
  threshold regression verdicts (``python -m repro diff``).
* :mod:`repro.obs.host` — environment fingerprints and the
  ``repro.bench-trajectory`` schema behind ``python -m repro
  fairness``.  Simulator speed comes from ``python perf/run.py``.
* :mod:`repro.obs.fairness` — :class:`FairnessObservatory`: passive
  fairness/starvation observatory — arrival-vs-grant overtake ledger,
  per-thread wait histograms, sliding-window Jain/writer-share series,
  starvation watchdog with a flight-recorder ring, per-lock SLO
  tracking; the ``fairness`` section of RunReport v4 and
  ``python -m repro fairness``.
"""

from repro.obs.diff import RunReportDiff, diff_run_reports
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
    append_record,
    env_fingerprint,
    load_trajectory,
    validate_host_section,
    validate_trajectory,
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
from repro.obs.report import (
    RUN_REPORT_KINDS,
    RUN_REPORT_SCHEMA,
    RUN_REPORT_VERSION,
    ReportValidationError,
    build_run_report,
    load_run_report,
    summarize_run_report,
    validate_run_report,
    write_run_report,
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
    "build_run_report", "validate_run_report", "write_run_report",
    "load_run_report", "summarize_run_report", "ReportValidationError",
    "RUN_REPORT_SCHEMA", "RUN_REPORT_VERSION", "RUN_REPORT_KINDS",
    "attach_machine_metrics", "harvest_machine_metrics",
    "harvest_stm_metrics", "finish_run",
    "ContentionProfiler", "ProfileError", "validate_profile",
    "RunReportDiff", "diff_run_reports",
    "HostProfileError", "validate_host_section",
    "env_fingerprint", "load_trajectory", "append_record",
    "validate_trajectory",
    "FairnessObservatory", "OvertakeLedger", "StarvationAlert",
    "FairnessError", "validate_fairness", "summarize_fairness",
]
