"""Golden fingerprints of every observability sink's output.

Four ``observed`` benchmark cells (``lcu`` and ``mrsw`` on Models A and
B, 16 threads, seed 1) run with all four sinks attached: the metrics
registry sampling every 2,000 cycles, the span tracer, the contention
profiler and the fairness observatory.  One more run of the ``lcu``
Model B cell attaches only an observatory with a tight starvation bound
and an SLO, so alerts fire and their flight-recorder snapshots are
pinned too.  Each exported object is pinned by a hash of its canonical
JSON, plus a few headline values that make a mismatch readable.  A
host-side change to a sink (caching, a faster path) must leave every
entry identical.  If an output changes on purpose, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_sink_golden.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.harness.microbench import run_microbench
from repro.obs import (
    ContentionProfiler,
    FairnessObservatory,
    MetricsRegistry,
    SpanTracer,
)
from repro.params import model_a, model_b

GOLDEN = pathlib.Path(__file__).parent / "data" / "sink_golden.json"

#: (key, lock, model, iterations per thread) at 25% writes, seed 1
CELLS = (
    ("lcu/A", "lcu", model_a, 15),
    ("lcu/B", "lcu", model_b, 15),
    ("mrsw/A", "mrsw", model_a, 10),
    ("mrsw/B", "mrsw", model_b, 10),
)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _all_sinks(lock, model, iters):
    registry, tracer = MetricsRegistry(), SpanTracer()
    profiler, fairness = ContentionProfiler(), FairnessObservatory()
    r = run_microbench(
        model(), lock, 16, 25, iters_per_thread=iters, seed=1,
        registry=registry, sample_interval=2000, tracer=tracer,
        profiler=profiler, fairness=fairness,
    )
    metrics = registry.to_dict()
    profile = profiler.to_dict()
    fair = fairness.to_dict()
    return {
        "elapsed": r.elapsed,
        "total_cs": r.total_cs,
        "counters": len(metrics["counters"]),
        "gauges": len(metrics["gauges"]),
        "series_points": sum(len(s) for s in metrics["series"].values()),
        "spans": len(tracer.spans),
        "acquisitions": sum(
            d["acquisitions"] for d in profile["locks"].values()
        ),
        "messages": sum(
            d["messages"]["total"] for d in profile["locks"].values()
        ),
        "overtakes": sum(
            d["overtakes"]["total"] for d in fair["locks"].values()
        ),
        "registry": _digest(metrics),
        "span_trace": _digest(tracer.to_chrome_trace()),
        "profile": _digest(profile),
        "profile_trace": _digest(profiler.to_chrome_trace()),
        "profile_folded": _digest(profiler.folded()),
        "fairness": _digest(fair),
    }


def _starving():
    fairness = FairnessObservatory(
        starvation_bound=1500, slo=1000, max_alert_details=1000,
    )
    run_microbench(model_b(), "lcu", 16, 25, iters_per_thread=15, seed=1,
                   fairness=fairness)
    section = fairness.to_dict()
    return {
        "alerts": len(fairness.alerts),
        "ring_lines": sum(len(a.events) for a in fairness.alerts),
        "fairness": _digest(section),
    }


def _fingerprints():
    out = {key: _all_sinks(lock, model, iters)
           for key, lock, model, iters in CELLS}
    out["lcu/B starving"] = _starving()
    return out


def test_sink_outputs_match_golden():
    got = _fingerprints()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip("sink golden regenerated")
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_golden_exercises_every_sink():
    """The pinned runs are not vacuous: every sink saw work, and the
    starvation run raised alerts with ring snapshots."""
    want = json.loads(GOLDEN.read_text())
    for key, _lock, _model, _iters in CELLS:
        cell = want[key]
        assert cell["total_cs"] == 16 * (15 if key.startswith("lcu") else 10)
        assert cell["spans"] > cell["total_cs"]
        assert cell["series_points"] > 0
        assert cell["acquisitions"] == cell["total_cs"]
    assert want["lcu/B starving"]["alerts"] > 0
    assert want["lcu/B starving"]["ring_lines"] > 0
