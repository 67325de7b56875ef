"""Environment fingerprints and the legacy ``host`` report section.

``repro.obs`` measures the simulated machine.  Simulator speed is
measured outside it, by ``python perf/run.py`` (end to end, and per
layer with ``--trace``); this module holds the little that harness
shares with the report schema.

* :func:`env_fingerprint` — the environment stamp (python
  version/implementation, platform, CPU count) that
  ``perf/child.py``'s results carry, so numbers from different
  machines are visible as such instead of silently noisy.
* :func:`validate_host_section` — checks the ``host`` section that v3
  RunReports carry.  Nothing writes it any more.
* :data:`HOST_FIELDS` — the fields a report of simulated quantities
  (the ``fairness`` scorecard) must not carry.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict, List


class HostProfileError(ValueError):
    """Malformed host section."""


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
# host-derived fields

#: Fields whose value depends on the host that ran the simulation.  A
#: report of simulated quantities carries none of them: two runs of the
#: same code stay byte-identical, and ``repro diff`` never gates host
#: noise as a regression.
HOST_FIELDS = frozenset(
    ("env", "time_utc", "host_seconds", "cycles_per_host_sec", "engine")
)


# ---------------------------------------------------------------------- #
# environment fingerprint

def env_fingerprint() -> Dict[str, Any]:
    """The environment stamp of a host-time measurement."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }
