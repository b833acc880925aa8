"""Log-bucketed value histograms with mergeable percentile estimates.

The registry's *timer* metric: every observed value (usually a span or
phase duration in seconds) lands in one of a fixed set of geometric
buckets — ten per decade from 1e-6 to 1e4, plus underflow and overflow —
alongside exact ``count``/``sum``/``min``/``max``.  Fixed edges make two
histograms mergeable by plain bucket-count addition, which is what lets
child-process snapshots fold into the parent registry without loss
(beyond bucket resolution) and without ordering sensitivity.

Percentiles (p50/p95/p99) are estimated by walking the cumulative bucket
counts and interpolating linearly inside the target bucket, clamped to
the exact observed ``[min, max]``; with ten buckets per decade the
relative error is bounded by ~26% of the value, plenty for spotting
order-of-magnitude regressions in phase timings.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

#: Geometric bucket grid: 10 buckets per decade over [1e-6, 1e4) seconds.
_LOG_MIN = -6.0
_LOG_MAX = 4.0
_PER_DECADE = 10
#: Interior buckets plus one underflow (index 0) and one overflow (last).
N_BUCKETS = int((_LOG_MAX - _LOG_MIN) * _PER_DECADE) + 2


def bucket_index(value: float) -> int:
    """Which bucket ``value`` falls in (0 = underflow, last = overflow)."""
    if value < 10.0 ** _LOG_MIN:
        return 0
    log = math.log10(value)
    if log >= _LOG_MAX:
        return N_BUCKETS - 1
    return 1 + int((log - _LOG_MIN) * _PER_DECADE)


def bucket_bounds(index: int) -> tuple:
    """The ``[lo, hi)`` value range of bucket ``index``."""
    if index <= 0:
        return (0.0, 10.0 ** _LOG_MIN)
    if index >= N_BUCKETS - 1:
        return (10.0 ** _LOG_MAX, math.inf)
    lo = 10.0 ** (_LOG_MIN + (index - 1) / _PER_DECADE)
    hi = 10.0 ** (_LOG_MIN + index / _PER_DECADE)
    return (lo, hi)


class TimingHistogram:
    """One mergeable histogram: fixed log buckets + exact count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: List[int] = [0] * N_BUCKETS

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._buckets[bucket_index(value)] += 1

    # -- queries -------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (``0 < p <= 100``)."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * (p / 100.0))
        seen = 0
        for index, n in enumerate(self._buckets):
            if n == 0:
                continue
            if seen + n >= target:
                lo, hi = bucket_bounds(index)
                # Interpolate linearly within the bucket, clamped to the
                # exact observed range (the overflow bucket's hi is inf).
                fraction = (target - seen) / n
                hi = min(hi, self.max if self.max is not None else hi)
                lo = max(lo, self.min if self.min is not None else lo)
                if not math.isfinite(hi) or hi < lo:
                    return lo
                return lo + (hi - lo) * fraction
            seen += n
        return self.max or 0.0

    # -- merge / serialization ------------------------------------------------

    def merge(self, other: "TimingHistogram") -> None:
        """Fold ``other`` into this histogram (bucket-count addition)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, n in enumerate(other._buckets):
            if n:
                self._buckets[index] += n

    def to_dict(self) -> Dict[str, object]:
        """A plain-data form (picklable / JSONable); sparse bucket list."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(i): n for i, n in enumerate(self._buckets) if n},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TimingHistogram":
        histogram = cls()
        histogram.count = int(data["count"])
        histogram.total = float(data["total"])
        histogram.min = None if data["min"] is None else float(data["min"])
        histogram.max = None if data["max"] is None else float(data["max"])
        for index, n in dict(data["buckets"]).items():
            histogram._buckets[int(index)] = int(n)
        return histogram

    def summary(self) -> Dict[str, float]:
        """The rendered form: count, sum, mean, min/max, p50/p95/p99."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def __repr__(self) -> str:
        return (f"TimingHistogram(count={self.count}, mean={self.mean:.6f}, "
                f"max={self.max})")
