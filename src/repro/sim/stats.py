"""Lightweight statistics accumulators used by the harness and benchmarks."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional


class Accumulator:
    """Streaming mean / variance / min / max accumulator (Welford)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self.min = x if self.min is None else min(self.min, x)
        self.max = x if self.max is None else max(self.max, x)

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Fold ``other``'s samples into this accumulator (Chan et al.'s
        parallel combine), so multi-seed harness runs can merge statistics
        without re-streaming raw values.  Returns ``self``."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return self
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.total += other.total
        self.min = min(self.min, other.min)  # type: ignore[type-var]
        self.max = max(self.max, other.max)  # type: ignore[type-var]
        return self

    def to_dict(self) -> Dict[str, object]:
        """Exact-state dump (full float precision, not a rounded summary)
        so a merge can continue in another process: ``from_dict(to_dict())``
        reproduces the accumulator bit-for-bit.  Used by the multiprocess
        sweep runner to ship per-shard moments back to the parent."""
        return {
            "n": self.n,
            "mean": self._mean,
            "m2": self._m2,
            "min": self.min,
            "max": self.max,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Accumulator":
        acc = cls()
        acc.n = d["n"]
        acc._mean = d["mean"]
        acc._m2 = d["m2"]
        acc.min = d["min"]
        acc.max = d["max"]
        acc.total = d["total"]
        return acc

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def confidence95(self) -> float:
        """Half-width of a normal-approximation 95% confidence interval."""
        if self.n < 2:
            return 0.0
        return 1.96 * self.stdev / math.sqrt(self.n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Accumulator(n={self.n}, mean={self.mean:.2f})"


def jain_fairness(values: Iterable[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally unfair.

    Used to quantify the fairness claims of the paper (LCU's FIFO-ish
    queueing vs SSB's reader preference / TAS's coherence capture).
    """
    vals: List[float] = list(values)
    if not vals:
        return 1.0
    s = sum(vals)
    sq = sum(v * v for v in vals)
    if sq == 0:
        return 1.0
    # Cauchy-Schwarz guarantees (Σx)² ≤ n·Σx² exactly; float rounding can
    # still nudge the quotient past 1.0, so clamp to the mathematical range.
    return min(1.0, (s * s) / (len(vals) * sq))


class Histogram:
    """Fixed-bucket histogram for latency distributions."""

    def __init__(self, bucket_width: int = 100) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self.buckets: Dict[int, int] = {}
        self.acc = Accumulator()

    def add(self, x: float) -> None:
        self.acc.add(x)
        b = int(x // self.bucket_width)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s buckets and moments into this histogram.
        Both histograms must share the same bucket width."""
        if other.bucket_width != self.bucket_width:
            raise ValueError(
                f"cannot merge histograms with bucket widths "
                f"{self.bucket_width} and {other.bucket_width}"
            )
        for b, count in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + count
        self.acc.merge(other.acc)
        return self

    def to_dict(self) -> Dict[str, object]:
        """Exact-state dump (buckets + accumulator moments), the mergeable
        counterpart of the lossy :meth:`summary`.  Bucket keys are emitted
        as strings so the dump survives a JSON round trip."""
        return {
            "bucket_width": self.bucket_width,
            "buckets": {str(b): c for b, c in sorted(self.buckets.items())},
            "acc": self.acc.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Histogram":
        h = cls(bucket_width=d["bucket_width"])
        h.buckets = {int(b): c for b, c in d["buckets"].items()}
        h.acc = Accumulator.from_dict(d["acc"])
        return h

    @property
    def empty(self) -> bool:
        return self.acc.n == 0

    def percentile(self, p: float) -> float:
        """Approximate percentile, p in [0, 100], interpolating linearly
        within the bucket the target rank falls into.

        Raises ``ValueError`` on an empty histogram (a percentile of
        nothing is undefined; 0.0 would be silently wrong) and for p
        outside [0, 100].  Callers that want a sentinel should check
        :attr:`empty` first."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile p must be in [0, 100], got {p}")
        if not self.buckets:
            raise ValueError("percentile of an empty histogram is undefined")
        target = self.acc.n * p / 100.0
        seen = 0
        for b in sorted(self.buckets):
            count = self.buckets[b]
            if seen + count >= target:
                frac = (target - seen) / count if count else 1.0
                return (b + max(0.0, min(1.0, frac))) * self.bucket_width
            seen += count
        return (max(self.buckets) + 1) * self.bucket_width

    def summary(self, percentiles: Iterable[float] = (50, 90, 95, 99)) -> Dict:
        """JSON-friendly summary used by run reports.  An empty histogram
        reports an empty ``percentiles`` table rather than fabricating
        zeros that would read as real (excellent) latencies."""
        return {
            "count": self.acc.n,
            "mean": self.acc.mean,
            "min": self.acc.min if self.acc.min is not None else 0.0,
            "max": self.acc.max if self.acc.max is not None else 0.0,
            "bucket_width": self.bucket_width,
            "percentiles": {} if self.empty else {
                f"p{g:g}": self.percentile(g) for g in percentiles
            },
        }
