"""Measurement helpers: latency summaries, throughput, age-of-information.

All latency inputs are integer nanoseconds; summaries report in the
same unit (callers convert for display). Percentiles use the
nearest-rank method so results are exact values from the sample, never
interpolated artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..netsim.units import SECOND


def percentile(samples: list[int] | list[float], fraction: float) -> float:
    """Nearest-rank percentile; ``fraction`` in [0, 1]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class LatencySummary:
    """Five-number latency summary (ns)."""

    count: int
    min_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    max_ns: float
    mean_ns: float

    @classmethod
    def of(cls, samples: list[int]) -> "LatencySummary":
        if not samples:
            raise ValueError("cannot summarize zero samples")
        return cls(
            count=len(samples),
            min_ns=float(min(samples)),
            p50_ns=percentile(samples, 0.50),
            p95_ns=percentile(samples, 0.95),
            p99_ns=percentile(samples, 0.99),
            max_ns=float(max(samples)),
            mean_ns=sum(samples) / len(samples),
        )

    def as_ms(self) -> dict[str, float]:
        """The summary converted to milliseconds, for display."""
        return {
            "count": self.count,
            "min": self.min_ns / 1e6,
            "p50": self.p50_ns / 1e6,
            "p95": self.p95_ns / 1e6,
            "p99": self.p99_ns / 1e6,
            "max": self.max_ns / 1e6,
            "mean": self.mean_ns / 1e6,
        }


def goodput_bps(bytes_delivered: int, duration_ns: int) -> float:
    """Delivered application bytes over wall (virtual) time."""
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    return bytes_delivered * 8 * SECOND / duration_ns


@dataclass
class AgeOfInformation:
    """Age-of-information tracker for a periodically-updated source.

    Tracks the classic sawtooth: age grows linearly between deliveries
    and resets to the delivered sample's own age. ``observe`` takes the
    delivery time and the sample's generation time; call ``average``
    at the end for the time-averaged AoI.
    """

    _last_delivery_ns: int | None = None
    _last_age_ns: int = 0
    _weighted_area: float = 0.0
    _span_ns: int = 0
    peak_ns: int = 0

    def observe(self, delivery_ns: int, generated_ns: int) -> None:
        age_at_delivery = delivery_ns - generated_ns
        if age_at_delivery < 0:
            raise ValueError("delivery precedes generation")
        if self._last_delivery_ns is not None:
            gap = delivery_ns - self._last_delivery_ns
            if gap < 0:
                raise ValueError("deliveries must be observed in time order")
            # Area of the trapezoid from last delivery to this one.
            peak = self._last_age_ns + gap
            self._weighted_area += (self._last_age_ns + peak) / 2.0 * gap
            self._span_ns += gap
            self.peak_ns = max(self.peak_ns, peak)
        self._last_delivery_ns = delivery_ns
        self._last_age_ns = age_at_delivery
        self.peak_ns = max(self.peak_ns, age_at_delivery)

    @property
    def average_ns(self) -> float:
        if self._span_ns == 0:
            return float(self._last_age_ns)
        return self._weighted_area / self._span_ns


def jains_fairness(values: list[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — 1.0 is perfectly
    fair, 1/n is one flow taking everything. Empty/all-zero input is
    degenerate (nobody was served *unequally*): returns 1.0."""
    xs = [float(v) for v in values]
    if not xs or all(x == 0.0 for x in xs):
        return 1.0
    return (sum(xs) ** 2) / (len(xs) * sum(x * x for x in xs))


def completion_fraction(delivered: int, sent: int) -> float:
    """Delivered fraction, guarding the zero-sent corner."""
    if sent == 0:
        return 1.0
    return delivered / sent
