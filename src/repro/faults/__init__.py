"""Deterministic fault injection ("nemesis") for the lock protocols.

Everything here is seeded and replayable: a :class:`FaultPlan` is a
JSON-serializable schedule of fault events derived from a seed, a
:class:`~repro.faults.injector.FaultInjector` arms it against one
machine + OS (import it from :mod:`repro.faults.injector`: only a
faulted run needs it and the reliable layer it installs), and
:mod:`repro.faults.nemesis` runs the full matrix of fault classes ×
lock algorithms × machine models, classifying every injection as
``recovered`` / ``degraded`` / ``violated``.
"""

from repro.faults.nemesis import NemesisResult, run_matrix
from repro.faults.plan import (
    ALL_CLASSES,
    CRASH_CLASSES,
    LCU_ONLY_CLASSES,
    MESSAGE_CLASSES,
    SCHED_CLASSES,
    FaultEvent,
    FaultPlan,
    generate_plan,
)

__all__ = [
    "ALL_CLASSES", "CRASH_CLASSES", "LCU_ONLY_CLASSES",
    "MESSAGE_CLASSES", "SCHED_CLASSES",
    "FaultEvent", "FaultPlan", "generate_plan",
    "NemesisResult", "run_matrix",
]
