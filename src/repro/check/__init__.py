"""repro.check — conformance and invariant checking for lock algorithms.

The correctness counterpart of :mod:`repro.obs`: where the telemetry
subsystem measures *how fast* a run was, this subsystem decides whether
the run was *legal*.  Three pieces compose (see README "Correctness
checking"):

* :mod:`repro.check.invariants` — :class:`InvariantMonitor`: attaches to
  a live machine through the probe bus, as the telemetry layer does
  (the ``lcu``, ``lrt``, ``lock`` and ``net`` topics), and
  continuously asserts reader-writer exclusion, LCU/LRT
  queue well-formedness (no cycles, no orphans, single head token) and
  leak freedom, raising structured :class:`InvariantViolation`\\ s that
  carry the event time and a window of recent protocol messages.
* :mod:`repro.check.oracle` — :class:`RWLockOracle`: a sequential
  reference model of a fair reader-writer lock that observed acquisition
  orders are cross-checked against (exclusion plus bounded-overtake
  fairness), reading the lock's shared waiter/holder table.
* :mod:`repro.check.fuzz` — a deterministic schedule fuzzer: seeded
  random lock programs (read/write mixes, trylocks, oversubscription,
  migration) explored across perturbed same-cycle interleavings via
  engine tie-break seeds, with shrinking of any violating schedule to a
  minimal reproducer serialized as JSON.

``python -m repro check`` drives all of it from the command line; the
conformance test matrix (``tests/test_check_matrix.py``) runs every
registered lock algorithm through it on Models A and B.
"""

from repro.check.fuzz import (
    CheckOutcome,
    FuzzCase,
    fuzz,
    fuzz_matrix,
    load_case,
    run_case,
    save_case,
    shrink,
)
from repro.check.invariants import (
    ExclusionTracker,
    InvariantMonitor,
    InvariantViolation,
    LivenessViolation,
    audit_lcu_queues,
    check_quiescent,
)
from repro.check.oracle import RWLockOracle

__all__ = [
    "InvariantViolation", "LivenessViolation", "InvariantMonitor",
    "ExclusionTracker", "audit_lcu_queues", "check_quiescent",
    "RWLockOracle",
    "FuzzCase", "CheckOutcome", "run_case", "fuzz", "fuzz_matrix",
    "shrink", "save_case", "load_case",
]
