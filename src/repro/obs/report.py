"""Machine-readable run reports (the ``RunReport`` JSON schema).

Every harness entry point (``microbench``, ``stm``, ``app``, ``figure``,
``sweep``, ``fairness``) can emit one RunReport: a single JSON object
capturing what ran (kind + config), what came out (results: the
harness result dataclass, plus fairness indices and latency percentiles
where applicable), and what the telemetry layer measured (the :class:`~repro.obs.registry.MetricsRegistry`
dump; the ``fairness`` scorecard keeps its cells under
``results.cells``).  The schema is versioned so downstream tooling —
including the repo's committed ``BENCH_telemetry.json`` and
``BENCH_fairness.json`` baselines — can evolve without guessing.

Top-level shape (version 4)::

    {
      "schema": "repro.run-report",
      "version": 4,
      "kind": "microbench" | "stm" | "app" | "figure" | "sweep"
              | "fairness",
      "config": {...},          # machine model + harness parameters
      "results": {...},         # harness result fields, JSON-safe
      "metrics": {              # MetricsRegistry.to_dict() (may be empty)
        "counters": {name: number},
        "gauges": {name: number},
        "histograms": {name: {count, mean, min, max, bucket_width,
                              percentiles: {pN: number}}},
        "series": {name: [[t, value], ...]}
      },
      "profile": {...},         # optional: ContentionProfiler.to_dict()
      "host": {...},            # optional, older reports only:
                                # host-time attribution
      "fairness": {...}         # optional: FairnessObservatory.to_dict()
                                # (--fairness wait/overtake/SLO ledger)
    }

Version 1 (no ``profile`` section), version 2 (no ``host`` section) and
version 3 (no ``fairness`` section) are still accepted everywhere —
older BENCH baselines stay valid and diffable.  Reports are always
*written* at version 4, and never with a ``host`` section, which only
older reports carry.

``validate_run_report`` is the single source of truth for the schema;
the CLI (``python -m repro report``), the smoke tests and the golden
tests all go through it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Optional

RUN_REPORT_SCHEMA = "repro.run-report"
RUN_REPORT_VERSION = 4
RUN_REPORT_SUPPORTED_VERSIONS = (1, 2, 3, 4)
RUN_REPORT_KINDS = ("microbench", "stm", "app", "figure", "sweep",
                    "fairness")

_NUMBER = (int, float)


class ReportValidationError(ValueError):
    """A RunReport object does not conform to the schema."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def _jsonify(value: Any) -> Any:
    """Best-effort conversion of harness values to JSON-safe data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, float):
        # JSON has no inf/nan; figures use them for "not run".
        if value != value:
            return None
        if value in (float("inf"), float("-inf")):
            return None
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def build_run_report(
    kind: str,
    config: Any,
    results: Any,
    metrics: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    fairness: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble (and validate) a RunReport dict.

    ``config`` and ``results`` may be dataclasses or dicts; values are
    coerced to JSON-safe types.  ``metrics`` is a
    ``MetricsRegistry.to_dict()`` dump (empty sections if omitted);
    ``profile`` is a ``ContentionProfiler.to_dict()`` section and
    ``fairness`` a ``FairnessObservatory.to_dict()`` section (each
    omitted from the report when None).
    """
    report = {
        "schema": RUN_REPORT_SCHEMA,
        "version": RUN_REPORT_VERSION,
        "kind": kind,
        "config": _jsonify(config) or {},
        "results": _jsonify(results) or {},
        "metrics": metrics if metrics is not None else {
            "counters": {}, "gauges": {}, "histograms": {}, "series": {},
        },
    }
    if profile is not None:
        report["profile"] = profile
    if fairness is not None:
        report["fairness"] = fairness
    validate_run_report(report)
    return report


def validate_run_report(report: Any) -> None:
    """Raise :class:`ReportValidationError` if ``report`` is not a valid
    RunReport of any supported schema version."""
    errors: List[str] = []

    def err(msg: str) -> None:
        errors.append(msg)

    if not isinstance(report, dict):
        raise ReportValidationError(["report must be a JSON object"])
    if report.get("schema") != RUN_REPORT_SCHEMA:
        err(f"schema must be {RUN_REPORT_SCHEMA!r}")
    version = report.get("version")
    if version not in RUN_REPORT_SUPPORTED_VERSIONS:
        err(f"version must be one of {RUN_REPORT_SUPPORTED_VERSIONS}")
    if report.get("kind") not in RUN_REPORT_KINDS:
        err(f"kind must be one of {RUN_REPORT_KINDS}")
    for section in ("config", "results"):
        if not isinstance(report.get(section), dict):
            err(f"{section!r} must be an object")
    if report.get("kind") == "fairness" and isinstance(
        report.get("results"), dict
    ):
        _check_scorecard_cells(report["results"], err)

    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        err("'metrics' must be an object")
    else:
        for section in ("counters", "gauges"):
            table = metrics.get(section)
            if not isinstance(table, dict):
                err(f"metrics.{section} must be an object")
                continue
            for name, v in table.items():
                if not isinstance(v, _NUMBER) or isinstance(v, bool):
                    err(f"metrics.{section}[{name!r}] must be a number")
        hists = metrics.get("histograms")
        if not isinstance(hists, dict):
            err("metrics.histograms must be an object")
        else:
            for name, h in hists.items():
                if not isinstance(h, dict):
                    err(f"metrics.histograms[{name!r}] must be an object")
                    continue
                for key in ("count", "mean", "min", "max", "bucket_width",
                            "percentiles"):
                    if key not in h:
                        err(f"metrics.histograms[{name!r}] missing {key!r}")
                pct = h.get("percentiles")
                if pct is not None and not isinstance(pct, dict):
                    err(f"metrics.histograms[{name!r}].percentiles must be "
                        f"an object")
        series = metrics.get("series")
        if not isinstance(series, dict):
            err("metrics.series must be an object")
        else:
            for name, pts in series.items():
                if not isinstance(pts, list):
                    err(f"metrics.series[{name!r}] must be a list")
                    continue
                for p in pts:
                    if (not isinstance(p, list) or len(p) != 2
                            or not all(isinstance(x, _NUMBER) for x in p)):
                        err(f"metrics.series[{name!r}] entries must be "
                            f"[time, value] pairs")
                        break

    profile = report.get("profile")
    if profile is not None:
        if version == 1:
            err("'profile' section requires version 2")
        else:
            from repro.obs.profile import ProfileError, validate_profile
            try:
                validate_profile(profile)
            except ProfileError as e:
                err(f"profile: {e}")

    host = report.get("host")
    if host is not None:
        if version in (1, 2):
            err("'host' section requires version 3")
        else:
            from repro.obs.host import HostProfileError, validate_host_section
            try:
                validate_host_section(host)
            except HostProfileError as e:
                err(f"host: {e}")

    fairness = report.get("fairness")
    if fairness is not None:
        if version in (1, 2, 3):
            err("'fairness' section requires version 4")
        else:
            from repro.obs.fairness import FairnessError, validate_fairness
            try:
                validate_fairness(fairness)
            except FairnessError as e:
                err(f"fairness: {e}")

    if errors:
        raise ReportValidationError(errors)


def _check_scorecard_cells(
    results: Dict[str, Any], err: Callable[[str], None]
) -> None:
    """A ``fairness`` report's ``results.cells``: one object of simulated
    numbers per ``"<lock>/<model>"``, with no host-derived field."""
    from repro.obs.host import HOST_FIELDS

    cells = results.get("cells")
    if not isinstance(cells, dict):
        err("fairness results.cells must be an object")
        return
    for key, cell in cells.items():
        if not isinstance(cell, dict):
            err(f"results.cells[{key!r}] must be an object")
            continue
        for name, v in cell.items():
            if name in HOST_FIELDS:
                err(f"results.cells[{key!r}].{name} is host-derived")
            elif not isinstance(v, _NUMBER):
                err(f"results.cells[{key!r}].{name} must be a number")


def write_run_report(path: str, report: Dict[str, Any]) -> None:
    """Validate ``report`` and write it as stable (sorted-key) JSON."""
    validate_run_report(report)
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


def load_run_report(path: str) -> Dict[str, Any]:
    """Read and validate a RunReport from ``path``."""
    with open(path) as f:
        report = json.load(f)
    validate_run_report(report)
    return report


def summarize_run_report(report: Dict[str, Any], top: int = 12) -> str:
    """Human-readable digest of a RunReport (the ``repro report`` verb)."""
    lines = [
        f"RunReport kind={report['kind']} "
        f"(schema {report['schema']} v{report['version']})",
    ]
    config = report["config"]
    interesting = [
        k for k in ("model", "name", "lock", "variant", "structure",
                    "threads", "write_pct", "app", "figure", "seed")
        if k in config
    ]
    if interesting:
        lines.append("config: " + ", ".join(
            f"{k}={config[k]}" for k in interesting
        ))
    results = report["results"]
    scalar = {
        k: v for k, v in sorted(results.items())
        if isinstance(v, _NUMBER) and not isinstance(v, bool)
    }
    for k, v in scalar.items():
        lines.append(f"  {k} = {v:g}" if isinstance(v, float)
                     else f"  {k} = {v}")
    metrics = report["metrics"]
    counters = sorted(
        metrics["counters"].items(), key=lambda kv: -abs(kv[1])
    )
    if counters:
        lines.append(f"top counters ({min(top, len(counters))} of "
                     f"{len(counters)}):")
        for name, v in counters[:top]:
            lines.append(f"  {name} = {v:g}")
    nhist = len(metrics["histograms"])
    nseries = len(metrics["series"])
    if nhist or nseries:
        lines.append(f"histograms: {nhist}, time series: {nseries}")
    profile = report.get("profile")
    if profile:
        locks = profile.get("locks", {})
        total = sum(d.get("acquisitions", 0) for d in locks.values())
        lines.append(
            f"profile: {len(locks)} lock(s), {total} acquisitions "
            f"(see `repro profile` for the decomposition)"
        )
    fairness = report.get("fairness")
    if fairness:
        locks = fairness.get("locks", {})
        overtakes = sum(
            d.get("overtakes", {}).get("total", 0) for d in locks.values()
        )
        alerts = sum(
            d.get("starvation", {}).get("alerts", 0) for d in locks.values()
        )
        lines.append(
            f"fairness: {len(locks)} lock(s), {overtakes} overtakes, "
            f"{alerts} starvation alert(s) "
            f"(see `repro fairness` for the scorecard)"
        )
    return "\n".join(lines)
