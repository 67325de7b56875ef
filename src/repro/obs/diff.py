"""Structural diffing of two versioned RunReports with regression verdicts.

``python -m repro diff OLD NEW`` is the repo's perf-regression gate: it
walks two RunReport JSON files (schema version 4), pairs up
comparable numeric quantities — result scalars, metric counters,
histogram means and p95s — and classifies each pair against a *relative*
threshold::

    ratio = (new - old) / |old|          (old == 0: any change -> "new")

A change only earns a **regression**/**improvement** verdict when the
metric's *direction* is known (is a bigger ``acquire_lat`` worse?  yes;
is a bigger ``total_cs`` worse?  no).  Direction is inferred from name
substrings (:data:`LOWER_IS_BETTER` / :data:`HIGHER_IS_BETTER`);
quantities with unknown direction are reported as plain ``changed`` and
never fail the gate, so adding a new counter can't break CI.

Config keys are compared too — a diff between runs of *different
experiments* is almost always user error, so config mismatches are
listed prominently (but are not regressions).

The fairness scorecard (``python -m repro fairness --metrics-out``,
``BENCH_fairness.json``) is a RunReport like any other: its cells are
``results.cells.<lock>/<model>.<field>`` leaves, judged by the same
direction rules.  Every compared quantity is simulated, so two runs of
the same code diff as unchanged.  Host time is never diffed here:
``python perf/run.py`` measures simulator speed, end to end and
(``--trace``) per layer.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

#: name substrings implying "smaller is better" (latency-like).
LOWER_IS_BETTER = (
    "latency", "lat", "cycles", "elapsed", "abort", "retries", "retry",
    "timeout", "failures", "failed", "misses", "invalidations",
    "queue_delay", "busy", "messages", "wait", "evictions", "nacks",
    "dropped", "overflow", "stall", "handoff", "transfer", "enqueue",
    "heap_pushes", "heap_pops", "events_processed",
    "overtake", "starvation", "violation", "abandoned",
)

#: name substrings implying "bigger is better" (throughput-like).
HIGHER_IS_BETTER = (
    "total_cs", "throughput", "commit", "fairness", "hits", "ops",
    "acquisitions", "completed", "jain", "writer_share",
)

#: verdicts, in severity order for sorting
VERDICTS = ("regression", "improvement", "changed", "added", "removed",
            "unchanged")


@dataclasses.dataclass
class DiffEntry:
    """One compared quantity."""

    key: str            # dotted path, e.g. "metrics.counters.net.messages_sent"
    old: Optional[float]
    new: Optional[float]
    ratio: Optional[float]   # relative change; None when not computable
    verdict: str             # one of VERDICTS
    direction: Optional[str]  # "lower" / "higher" / None (unknown)


def direction_of(name: str) -> Optional[str]:
    """Infer whether a smaller value of ``name`` is better ("lower"),
    a bigger one is ("higher"), or we don't know (None).  Higher-is-
    better substrings win ties: "total_cs_cycles" is throughput-like
    even though it mentions cycles.

    Names under a ``fairness.`` namespace are judged by their tail:
    "fairness" itself is a higher-is-better quantity (the Jain index
    result scalar), but ``fairness.lcu_0x80.overtakes.total`` is an
    overtake count, where lower is better."""
    low = name.lower()
    if "fairness." in low:
        low = low.rsplit("fairness.", 1)[1] or low
    if any(s in low for s in HIGHER_IS_BETTER):
        return "higher"
    if any(s in low for s in LOWER_IS_BETTER):
        return "lower"
    return None


def _ratio(old: float, new: float) -> Optional[float]:
    if old == new:
        return 0.0
    if old == 0:
        return None              # any change from zero: not a ratio
    return (new - old) / abs(old)


def _verdict(key: str, old: float, new: float,
             threshold: float) -> Tuple[Optional[float], str, Optional[str]]:
    ratio = _ratio(old, new)
    direction = direction_of(key)
    if old == new:
        return 0.0, "unchanged", direction
    exceeded = ratio is None or abs(ratio) > threshold
    if not exceeded:
        return ratio, "unchanged", direction
    if direction is None:
        return ratio, "changed", direction
    worse = (new > old) if direction == "lower" else (new < old)
    return ratio, ("regression" if worse else "improvement"), direction


def _numeric_leaves(obj: Any, prefix: str) -> Dict[str, float]:
    """Flatten nested dicts to dotted-path -> number (bools excluded)."""
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_numeric_leaves(v, f"{prefix}.{k}" if prefix else k))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = obj
    return out


def _comparable(report: Dict[str, Any]) -> Dict[str, float]:
    """Extract the quantities worth diffing from one RunReport."""
    out: Dict[str, float] = {}
    out.update(_numeric_leaves(report.get("results", {}), "results"))
    metrics = report.get("metrics", {})
    out.update(_numeric_leaves(metrics.get("counters", {}),
                               "metrics.counters"))
    for name, h in metrics.get("histograms", {}).items():
        if not isinstance(h, dict):
            continue
        if isinstance(h.get("mean"), (int, float)):
            out[f"metrics.histograms.{name}.mean"] = h["mean"]
        pct = h.get("percentiles") or {}
        if isinstance(pct, dict) and isinstance(
            pct.get("p95"), (int, float)
        ):
            out[f"metrics.histograms.{name}.p95"] = pct["p95"]
    profile = report.get("profile")
    if isinstance(profile, dict):
        for label, d in profile.get("locks", {}).items():
            if not isinstance(d, dict):
                continue
            for p, s in (d.get("phases") or {}).items():
                if isinstance(s, dict) and isinstance(
                    s.get("mean"), (int, float)
                ):
                    out[f"profile.{label}.{p}.mean"] = s["mean"]
    fairness = report.get("fairness")
    if isinstance(fairness, dict):
        for label, d in fairness.get("locks", {}).items():
            if not isinstance(d, dict):
                continue
            base = f"fairness.{label}"
            for key in ("jain", "writer_share", "longest_wait"):
                v = d.get(key)
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    out[f"{base}.{key}"] = v
            ot = d.get("overtakes")
            if isinstance(ot, dict):
                for key in ("total", "max"):
                    v = ot.get(key)
                    if isinstance(v, (int, float)):
                        out[f"{base}.overtakes.{key}"] = v
            for mode in ("read", "write"):
                w = (d.get("wait") or {}).get(mode)
                if isinstance(w, dict) and isinstance(
                    w.get("p999"), (int, float)
                ):
                    out[f"{base}.wait.{mode}.p999"] = w["p999"]
            sv = d.get("starvation")
            if isinstance(sv, dict) and isinstance(
                sv.get("alerts"), (int, float)
            ):
                out[f"{base}.starvation.alerts"] = sv["alerts"]
            slo = d.get("slo")
            if isinstance(slo, dict) and isinstance(
                slo.get("time_in_violation"), (int, float)
            ):
                out[f"{base}.slo.time_in_violation"] = \
                    slo["time_in_violation"]
    return out


@dataclasses.dataclass
class RunReportDiff:
    """The full comparison of two RunReports."""

    entries: List[DiffEntry]
    config_mismatches: List[Tuple[str, Any, Any]]
    threshold: float

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.verdict == "regression"]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.verdict == "improvement"]

    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.run-report-diff",
            "version": 1,
            "threshold": self.threshold,
            "config_mismatches": [
                {"key": k, "old": o, "new": n}
                for k, o, n in self.config_mismatches
            ],
            "counts": {
                v: sum(1 for e in self.entries if e.verdict == v)
                for v in VERDICTS
            },
            "entries": [dataclasses.asdict(e) for e in self.entries],
        }

    def summarize(self, top: int = 20) -> str:
        lines = []
        counts = {v: 0 for v in VERDICTS}
        for e in self.entries:
            counts[e.verdict] += 1
        lines.append(
            f"diff: {len(self.entries)} quantities compared "
            f"(threshold {self.threshold:.0%}): "
            + ", ".join(f"{n} {v}" for v, n in counts.items() if n)
        )
        if self.config_mismatches:
            lines.append(f"config mismatches "
                         f"({len(self.config_mismatches)}):")
            for k, o, n in self.config_mismatches[:top]:
                lines.append(f"  {k}: {o!r} -> {n!r}")

        def fmt(e: DiffEntry) -> str:
            ratio = ("n/a" if e.ratio is None
                     else f"{e.ratio:+.1%}")
            old = "-" if e.old is None else f"{e.old:g}"
            new = "-" if e.new is None else f"{e.new:g}"
            return f"  {e.key}: {old} -> {new}  ({ratio})"

        for verdict, title in (
            ("regression", "REGRESSIONS"),
            ("improvement", "improvements"),
            ("changed", "changed (direction unknown, not gated)"),
        ):
            rows = [e for e in self.entries if e.verdict == verdict]
            if not rows:
                continue
            rows.sort(key=lambda e: -(abs(e.ratio)
                                      if e.ratio is not None else
                                      float("inf")))
            lines.append(f"{title} ({len(rows)}):")
            lines.extend(fmt(e) for e in rows[:top])
            if len(rows) > top:
                lines.append(f"  ... and {len(rows) - top} more")
        added = [e for e in self.entries if e.verdict == "added"]
        removed = [e for e in self.entries if e.verdict == "removed"]
        if added:
            lines.append(f"added ({len(added)}): "
                         + ", ".join(e.key for e in added[:top]))
        if removed:
            lines.append(f"removed ({len(removed)}): "
                         + ", ".join(e.key for e in removed[:top]))
        if not self.entries:
            lines.append("(nothing comparable in either report)")
        return "\n".join(lines)


def diff_run_reports(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = 0.10,
) -> RunReportDiff:
    """Compare two (already validated) RunReport dicts.

    ``threshold`` is the relative change below which a quantity counts
    as ``unchanged``; only known-direction quantities beyond it become
    ``regression``/``improvement``.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    old_q, new_q = _comparable(old), _comparable(new)
    entries: List[DiffEntry] = []
    for key in sorted(set(old_q) | set(new_q)):
        if key not in new_q:
            entries.append(DiffEntry(key, old_q[key], None, None,
                                     "removed", direction_of(key)))
        elif key not in old_q:
            entries.append(DiffEntry(key, None, new_q[key], None,
                                     "added", direction_of(key)))
        else:
            ratio, verdict, direction = _verdict(
                key, old_q[key], new_q[key], threshold
            )
            entries.append(DiffEntry(key, old_q[key], new_q[key],
                                     ratio, verdict, direction))
    entries.sort(key=lambda e: (VERDICTS.index(e.verdict), e.key))
    mismatches: List[Tuple[str, Any, Any]] = []
    old_cfg = old.get("config", {})
    new_cfg = new.get("config", {})
    for k in sorted(set(old_cfg) | set(new_cfg)):
        if old_cfg.get(k) != new_cfg.get(k):
            mismatches.append((k, old_cfg.get(k), new_cfg.get(k)))
    return RunReportDiff(entries, mismatches, threshold)
