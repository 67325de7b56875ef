"""Environment fingerprints and the list of host-derived report fields.

``repro.obs`` measures the simulated machine.  Simulator speed is
measured outside it, by ``python perf/run.py`` (end to end, and per
layer with ``--trace``); this module holds the little that harness
shares with the report schema.

* :func:`env_fingerprint` — the environment stamp (python
  version/implementation, platform, CPU count) that
  ``perf/child.py``'s results carry, so numbers from different
  machines are visible as such instead of silently noisy.
* :data:`HOST_FIELDS` — the fields a report of simulated quantities
  (the ``fairness`` scorecard) must not carry.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict


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
