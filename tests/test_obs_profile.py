"""Unit tests for the contention profiler (repro.obs.profile)."""

import pytest

from repro.harness.microbench import run_microbench
from repro.obs import validate_chrome_trace
from repro.obs.profile import (
    ACQUIRE_PHASES,
    ALL_PHASES,
    Acquisition,
    ContentionProfiler,
    ProfileError,
    validate_profile,
)
from repro.params import model_a, small_test_model


def profiled_run(lock="lcu", threads=8, write_pct=100, iters=30,
                 model=None, **kw):
    prof = ContentionProfiler()
    result = run_microbench(
        model if model is not None else small_test_model(),
        lock, threads, write_pct,
        iters_per_thread=iters, seed=1, profiler=prof, **kw,
    )
    return prof, result


class TestPhaseAlgebra:
    def test_full_skeleton_telescopes(self):
        a = Acquisition("l", 1, True, t_request=100, t_enqueue=110,
                        t_grant_sent=150, t_grant_recv=160, t_acquired=170)
        p = a.phases()
        assert p == {"enqueue": 10, "queue_wait": 40,
                     "transfer": 10, "handoff": 10}
        assert sum(p.values()) == a.acquire_latency == 70

    def test_missing_interior_timestamps_default_safely(self):
        # software locks / FLT hits: no grant messages at all
        a = Acquisition("l", 1, False, t_request=100, t_acquired=130)
        p = a.phases()
        assert sum(p.values()) == 30
        assert p["enqueue"] == 0 and p["transfer"] == 0

    def test_out_of_window_timestamps_clamped(self):
        # a grant_sent recorded after the acquire (e.g. a stale retry)
        # must not produce negative phases
        a = Acquisition("l", 1, True, t_request=100, t_enqueue=90,
                        t_grant_sent=500, t_grant_recv=120, t_acquired=140)
        p = a.phases()
        assert all(v >= 0 for v in p.values())
        assert sum(p.values()) == 40

    def test_cs_cycles(self):
        a = Acquisition("l", 1, True, t_request=0, t_acquired=10,
                        t_released=25)
        assert a.cs_cycles == 15
        a2 = Acquisition("l", 1, True, t_request=0, t_acquired=10)
        assert a2.cs_cycles is None


class TestProfiledMicrobench:
    @pytest.mark.parametrize("lock", ["lcu", "ssb", "mcs", "mrsw", "clh",
                                      "ticket", "tpmcs", "tas"])
    def test_phase_sum_equals_acquire_latency(self, lock):
        prof, result = profiled_run(lock=lock, threads=6, iters=20)
        d = prof.to_dict()
        assert len(d["locks"]) == 1
        (ld,) = d["locks"].values()
        assert ld["acquisitions"] == result.total_cs
        phase_sum = sum(ld["phases"][p]["total"] for p in ACQUIRE_PHASES)
        assert phase_sum == ld["acquire_latency_total"]

    def test_profiled_latency_matches_histogram_exactly(self):
        prof, result = profiled_run(lock="lcu", threads=8, iters=25)
        (ld,) = prof.to_dict()["locks"].values()
        mean = ld["acquire_latency_total"] / ld["acquisitions"]
        assert mean == pytest.approx(result.acquire_latency_mean, rel=1e-12)

    def test_lcu_decomposition_attributes_interior_phases(self):
        # Under write contention, the LCU pipeline must attribute real
        # time to queue_wait and transfer (grant messages in flight).
        prof, _ = profiled_run(lock="lcu", threads=8, iters=30,
                               model=model_a())
        (ld,) = prof.to_dict()["locks"].values()
        assert ld["phases"]["queue_wait"]["total"] > 0
        assert ld["phases"]["transfer"]["total"] > 0

    def test_reader_writer_modes_split(self):
        prof, result = profiled_run(lock="lcu", threads=8, write_pct=50,
                                    iters=30)
        (ld,) = prof.to_dict()["locks"].values()
        assert ld["reads"] == result.reader_cs > 0
        assert ld["writes"] == result.writer_cs > 0
        by_mode = ld["by_mode"]
        assert (by_mode["read"]["critical_section"]["count"]
                == ld["reads"])
        assert (by_mode["write"]["critical_section"]["count"]
                == ld["writes"])

    def test_per_thread_accounting(self):
        threads = 5
        prof, result = profiled_run(lock="mcs", threads=threads, iters=12)
        (ld,) = prof.to_dict()["locks"].values()
        assert len(ld["per_thread"]) == threads
        assert (sum(t["acquisitions"] for t in ld["per_thread"].values())
                == result.total_cs)

    def test_queue_depth_timeline(self):
        prof, _ = profiled_run(lock="lcu", threads=8, iters=20)
        (ld,) = prof.to_dict()["locks"].values()
        q = ld["queue_depth"]
        assert q["max_waiting_writers"] >= 1
        assert 0 < q["mean_waiting_writers"] <= q["max_waiting_writers"]
        times = [p[0] for p in q["timeline"]]
        assert times == sorted(times)
        assert q["dropped_points"] == 0

    def test_message_attribution_lcu_vs_software(self):
        prof_hw, _ = profiled_run(lock="lcu", threads=6, iters=15)
        (hw,) = prof_hw.to_dict()["locks"].values()
        assert hw["messages"]["total"] > 0
        assert "Grant" in hw["messages"]["by_type"]
        prof_sw, _ = profiled_run(lock="mcs", threads=6, iters=15)
        (sw,) = prof_sw.to_dict()["locks"].values()
        assert sw["messages"]["total"] == 0

    def test_critical_path_covers_all_acquisitions(self):
        prof, result = profiled_run(lock="lcu", threads=8, iters=20)
        (ld,) = prof.to_dict(top=3)["locks"].values()
        cp = ld["critical_path"]
        assert cp["links"] == result.total_cs
        assert cp["length"] == cp["cs_total"] + cp["handoff_total"]
        assert len(cp["top_edges"]) == 3
        durs = [e["duration"] for e in cp["top_edges"]]
        assert durs == sorted(durs, reverse=True)

    def test_no_unmatched_probes_on_clean_run(self):
        prof, _ = profiled_run(lock="lcu", threads=8, iters=20)
        assert prof.unmatched_probes == 0

    def test_detach_restores_machine(self):
        prof = ContentionProfiler()
        run_microbench(small_test_model(), "lcu", 4,
                       iters_per_thread=10, seed=1, profiler=prof)
        # finish_run detaches: every bus subscription is gone with it
        assert prof._machine is None


class TestExports:
    def test_folded_format(self):
        prof, _ = profiled_run(lock="lcu", threads=6, write_pct=50,
                               iters=20)
        folded = prof.folded()
        assert folded.endswith("\n")
        lines = folded.strip().split("\n")
        assert lines == sorted(lines)
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            lock, mode, phase = stack.split(";")
            assert lock.startswith("lcu@")
            assert mode in ("read", "write")
            assert phase in ALL_PHASES
            assert int(weight) >= 0

    def test_folded_weights_match_phase_totals(self):
        prof, _ = profiled_run(lock="lcu", threads=6, iters=20)
        (ld,) = prof.to_dict()["locks"].values()
        weights = {}
        for line in prof.folded().strip().split("\n"):
            stack, weight = line.rsplit(" ", 1)
            phase = stack.split(";")[2]
            weights[phase] = weights.get(phase, 0) + int(weight)
        for p in ALL_PHASES:
            assert weights.get(p, 0) == ld["phases"][p]["total"]

    def test_chrome_trace_validates_and_is_contiguous(self):
        prof, result = profiled_run(lock="lcu", threads=6, iters=15)
        trace = prof.to_chrome_trace()
        validate_chrome_trace(trace)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # 4 acquire phases + critical_section per acquisition
        assert len(spans) == 5 * result.total_cs
        assert all(e["dur"] >= 0 for e in spans)

    def test_chrome_trace_capacity_cap(self):
        prof, _ = profiled_run(lock="lcu", threads=6, iters=15)
        trace = prof.to_chrome_trace(capacity=7)
        assert len([e for e in trace["traceEvents"]
                    if e["ph"] == "X"]) == 7

    def test_summarize_mentions_phase_sum(self):
        prof, _ = profiled_run(lock="lcu", threads=6, iters=15)
        text = prof.summarize()
        assert "100.00% of end-to-end acquire latency" in text
        assert "critical path" in text


class TestValidateProfile:
    def test_roundtrip_validates(self):
        prof, _ = profiled_run(lock="lcu", threads=4, iters=10)
        validate_profile(prof.to_dict())    # must not raise

    def test_rejects_non_dict(self):
        with pytest.raises(ProfileError):
            validate_profile([])

    def test_rejects_bad_schema(self):
        prof, _ = profiled_run(lock="lcu", threads=4, iters=10)
        d = prof.to_dict()
        d["schema"] = "nope"
        with pytest.raises(ProfileError, match="schema"):
            validate_profile(d)

    def test_rejects_phase_sum_mismatch(self):
        prof, _ = profiled_run(lock="lcu", threads=4, iters=10)
        d = prof.to_dict()
        (ld,) = d["locks"].values()
        ld["acquire_latency_total"] += 1
        with pytest.raises(ProfileError, match="sum"):
            validate_profile(d)

    def test_rejects_negative_edge(self):
        prof, _ = profiled_run(lock="lcu", threads=4, iters=10)
        d = prof.to_dict()
        (ld,) = d["locks"].values()
        ld["critical_path"]["top_edges"][0]["duration"] = -5
        with pytest.raises(ProfileError, match="negative"):
            validate_profile(d)
