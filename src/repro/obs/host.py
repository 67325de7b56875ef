"""Host-benchmark records: environment fingerprints and the bench
trajectory schema.

``repro.obs`` measures the simulated machine; this module holds what the
host-speed tooling shares.  Per-layer host time is measured outside the
simulator, by ``python perf/run.py --workload W --trace``.

* :func:`env_fingerprint` — the environment stamp every bench record
  carries (python version/implementation, platform, CPU count) so a
  trajectory mixing machines is visible instead of silently noisy.
* The **bench trajectory** schema (``repro.bench-trajectory``) —
  the machine-readable, append-only record list behind
  ``BENCH_engine.json`` and ``python -m repro bench``; see
  :mod:`repro.harness.bench` for the runner that produces records.
* :func:`validate_host_section` — checks the ``host`` sections that
  older records and v3 RunReports carry.  Nothing writes them any more.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Dict, List, Tuple


class HostProfileError(ValueError):
    """Malformed host section / bench trajectory."""


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
