"""Unit tests for repro.obs.host: the host-derived fields a scorecard
record must not carry, and environment fingerprints.
"""

import pytest

from repro.obs.host import HOST_FIELDS, env_fingerprint
from repro.obs.report import (
    ReportValidationError,
    build_run_report,
    validate_run_report,
)


def _valid_cell():
    return {
        "simulated_cycles": 1000, "total_cs": 20, "cycles_per_cs": 50.0,
        "jain": 0.98, "max_overtake": 2, "overtakes_total": 7,
        "writer_share": 0.25, "wait_p999": 120.5, "starvation_alerts": 0,
        "zero_overhead": True,
    }


def _valid_record():
    """A fairness scorecard record: a RunReport of kind ``fairness``."""
    return build_run_report(
        "fairness", {"threads": 4, "write_pct": 20},
        {"cells": {"lcu/A": _valid_cell()}},
    )


class TestValidation:
    def test_valid_record(self):
        validate_run_report(_valid_record())

    @pytest.mark.parametrize("strip", ["cells"])
    def test_record_missing_key(self, strip):
        rec = _valid_record()
        del rec["results"][strip]
        with pytest.raises(ReportValidationError, match=strip):
            validate_run_report(rec)

    @pytest.mark.parametrize("mutation", [
        {"jain": "high"},
        {"simulated_cycles": None},
        {"cycles_per_host_sec": 2.0e6},
        {"engine": {"events_processed": 10}},
    ])
    def test_bad_cell(self, mutation):
        # host-derived fields are as invalid in a cell as a malformed one
        rec = _valid_record()
        rec["results"]["cells"]["lcu/A"].update(mutation)
        with pytest.raises(ReportValidationError, match=next(iter(mutation))):
            validate_run_report(rec)


class TestFingerprint:
    def test_fingerprint_keys(self):
        fp = env_fingerprint()
        for key in ("python", "implementation", "platform", "machine",
                    "cpu_count"):
            assert key in fp
        # the stamp is host-derived, so no scorecard record may carry it
        assert "env" in HOST_FIELDS
