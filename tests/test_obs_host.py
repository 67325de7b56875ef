"""Unit tests for repro.obs.host: trajectory records, host-section
validation and environment fingerprints.
"""

import pytest

from repro.obs.host import (
    HostProfileError,
    append_record,
    empty_trajectory,
    env_fingerprint,
    fingerprint_mismatches,
    is_trajectory,
    latest_record,
    load_trajectory,
    validate_host_section,
    validate_record,
    validate_trajectory,
    write_trajectory,
)


# --------------------------------------------------------------------- #
# host-section / trajectory validation

def _host_section():
    """A ``host`` section as older trajectory cells and v3 RunReports
    carry it."""
    return {
        "enabled": True,
        "total_ns": 1750,
        "subsystems": {"engine": 1000, "lcu": 500, "net": 250},
        "handlers": {
            "handler": {"subsystem": "lcu", "ns": 400, "events": 1},
        },
    }


def _valid_cell():
    return {
        "lock": "lcu", "model": "A", "threads": 4, "write_pct": 100,
        "simulated_cycles": 1000, "cycles_per_host_sec": 2.0e6,
        "engine": {"events_processed": 10},
    }


def _valid_record(label=None):
    rec = {"env": env_fingerprint(), "time_utc": "2026-01-01T00:00:00Z",
           "cells": [_valid_cell()]}
    if label:
        rec["label"] = label
    return rec


class TestValidation:
    def test_valid_host_section(self):
        validate_host_section(_host_section())

    @pytest.mark.parametrize("mutation", [
        {"total_ns": "many"},
        {"subsystems": []},
        {"subsystems": {"engine": "x"}},
        {"handlers": 3},
    ])
    def test_bad_host_section(self, mutation):
        section = _host_section()
        section.update(mutation)
        with pytest.raises(HostProfileError):
            validate_host_section(section)

    def test_valid_record(self):
        validate_record(_valid_record())

    @pytest.mark.parametrize("strip", ["env", "cells"])
    def test_record_missing_key(self, strip):
        rec = _valid_record()
        del rec[strip]
        with pytest.raises(HostProfileError):
            validate_record(rec)

    @pytest.mark.parametrize("mutation", [
        {"lock": 3},
        {"threads": "four"},
        {"cycles_per_host_sec": None},
        {"engine": []},
    ])
    def test_bad_cell(self, mutation):
        rec = _valid_record()
        rec["cells"][0].update(mutation)
        with pytest.raises(HostProfileError):
            validate_record(rec)

    def test_trajectory_shape(self):
        t = empty_trajectory()
        assert is_trajectory(t)
        validate_trajectory(t)
        assert not is_trajectory({"schema": "repro.run-report"})
        with pytest.raises(HostProfileError):
            validate_trajectory({"schema": "repro.bench-trajectory",
                                 "version": 99, "records": []})


class TestTrajectoryFile:
    def test_missing_file_loads_empty(self, tmp_path):
        t = load_trajectory(str(tmp_path / "nope.json"))
        assert t["records"] == []

    def test_append_grows(self, tmp_path):
        path = str(tmp_path / "t.json")
        append_record(path, _valid_record())
        t = append_record(path, _valid_record())
        assert len(t["records"]) == 2
        validate_trajectory(load_trajectory(path))

    def test_append_same_label_replaces(self, tmp_path):
        # idempotence: re-running a labelled bench updates the record
        # in place instead of growing the trajectory forever
        path = str(tmp_path / "t.json")
        a = _valid_record("ci")
        append_record(path, a)
        b = _valid_record("ci")
        b["cells"][0]["cycles_per_host_sec"] = 9.0e6
        t = append_record(path, b)
        assert len(t["records"]) == 1
        assert t["records"][0]["cells"][0]["cycles_per_host_sec"] == 9.0e6

    def test_append_validates(self, tmp_path):
        with pytest.raises(HostProfileError):
            append_record(str(tmp_path / "t.json"), {"cells": []})

    def test_write_and_latest(self, tmp_path):
        path = str(tmp_path / "t.json")
        t = empty_trajectory()
        t["records"] = [_valid_record("a"), _valid_record("b")]
        write_trajectory(path, t)
        assert latest_record(load_trajectory(path))["label"] == "b"
        assert latest_record(t, 0)["label"] == "a"
        assert latest_record(t, -2)["label"] == "a"
        with pytest.raises(HostProfileError):
            latest_record(empty_trajectory())


class TestFingerprint:
    def test_fingerprint_keys(self):
        fp = env_fingerprint()
        for key in ("python", "implementation", "platform", "machine",
                    "cpu_count"):
            assert key in fp

    def test_mismatch_detection(self):
        a = env_fingerprint()
        b = dict(a, python="9.9.9")
        assert fingerprint_mismatches(a, a) == []
        mism = fingerprint_mismatches(a, b)
        assert mism == [("python", a["python"], "9.9.9")]
