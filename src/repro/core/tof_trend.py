"""ToF filtering and trend detection (paper Sections 2.4, 2.5).

The pipeline: raw ToF readings arrive every 20 ms from data-ACK exchanges;
they are aggregated once per second with a median filter (robust to the
heavy-tailed measurement noise reported in [4]); a moving window of the
per-second medians is tested for a monotone trend.

* all medians trending **up**   -> macro mobility, moving **away** from the AP
* all medians trending **down** -> macro mobility, moving **towards** the AP
* otherwise                     -> micro mobility

Commodity ToF is quantised to baseband clock cycles (44 MHz on the Atheros
chipset: one cycle is ~6.8 m of round trip, ~3.4 m of distance), so a
walking user advances the median by well under a cycle per second and the
median series shows plateaus.  The paper's wording — ToF values that
"*suggest* an increasing or decreasing trend" — is implemented here as a
tolerance test: a trend holds if no step contradicts the direction by more
than ``step_tolerance_cycles`` **and** the net change across the window
exceeds ``min_net_cycles`` (which also rejects micro mobility, whose
confined motion cannot move the round trip by more than ~2 cycles).

This module holds the pipeline's configuration, the trend enum and the
window test :func:`detect_trend`.  The streaming pipeline itself (median
filter into trend window) is
:class:`repro.core.batched.BatchedToFTrendDetector`, one row per tracked
client or AP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.mobility.modes import Heading


class ToFTrend(enum.Enum):
    """Direction of the distance trend seen in the ToF window."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    NONE = "none"

    @property
    def heading(self) -> Heading:
        """Map a distance trend to the client heading relative to the AP."""
        if self is ToFTrend.INCREASING:
            return Heading.AWAY
        if self is ToFTrend.DECREASING:
            return Heading.TOWARDS
        return Heading.NONE


@dataclass(frozen=True)
class ToFTrendConfig:
    """Knobs of the ToF pipeline (paper defaults in Section 2.5)."""

    #: Raw ToF sampling interval (paper: every 20 ms).
    sample_interval_s: float = 0.020
    #: Median aggregation period (paper: every second).
    median_period_s: float = 1.0
    #: Trend window, in median periods.  The paper uses ~4 s; with integer
    #: cycle quantisation a 5-median window (4 one-second intervals) is the
    #: shortest that clears min_net_cycles at walking speed.
    window_periods: int = 5
    #: Maximum tolerated backward step inside an otherwise monotone window.
    step_tolerance_cycles: float = 0.6
    #: Minimum net change across the window to call a trend.  Must exceed
    #: one quantisation step (1 cycle), otherwise a median flickering on a
    #: cycle boundary registers as a trend.
    min_net_cycles: float = 1.0
    #: When True the median filter closes batches on *wall clock* rather
    #: than sample count: one median per ``median_period_s`` of real time,
    #: and a period with fewer than :attr:`effective_min_median_samples`
    #: readings emits a gap marker that invalidates the trend window instead
    #: of stretching "one second" of medians over arbitrary real time.
    #: The default (False) keeps the count-based fast path bit-identical
    #: for uniform traces.
    time_aware: bool = False
    #: Minimum raw samples a period needs to yield a trustworthy median in
    #: time-aware mode; ``None`` means half the nominal samples-per-median.
    min_median_samples: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0 or self.median_period_s <= 0:
            raise ValueError("intervals must be positive")
        if self.median_period_s < self.sample_interval_s:
            raise ValueError("median period must cover at least one sample")
        if self.window_periods < 2:
            raise ValueError("trend window needs at least 2 medians")
        if self.step_tolerance_cycles < 0:
            raise ValueError("step tolerance must be non-negative (cycles)")
        if self.min_net_cycles <= 0:
            raise ValueError("minimum net change must be positive (cycles)")
        if self.min_median_samples is not None and self.min_median_samples < 1:
            raise ValueError("min_median_samples must be >= 1")

    @property
    def samples_per_median(self) -> int:
        return max(1, int(round(self.median_period_s / self.sample_interval_s)))

    @property
    def effective_min_median_samples(self) -> int:
        """Resolved gap threshold for time-aware aggregation."""
        if self.min_median_samples is not None:
            return self.min_median_samples
        return max(1, self.samples_per_median // 2)


def detect_trend(
    medians: List[float],
    step_tolerance: float,
    min_net: float,
) -> ToFTrend:
    """Classify a window of per-second ToF medians as a trend (or none)."""
    if len(medians) < 2:
        return ToFTrend.NONE
    net = medians[-1] - medians[0]
    steps = [b - a for a, b in zip(medians, medians[1:])]
    if net >= min_net and all(step >= -step_tolerance for step in steps):
        return ToFTrend.INCREASING
    if net <= -min_net and all(step <= step_tolerance for step in steps):
        return ToFTrend.DECREASING
    return ToFTrend.NONE

