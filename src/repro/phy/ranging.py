"""ToF-based ranging: distance estimation from the data-ACK exchange.

The classifier only needs the ToF *trend*, but the controller's roaming
preparation (Section 3.1) also uses the client's *distance* to neighbour
APs ("compute the client's distance, RSSI and heading information towards
themselves"), and the underlying ranging quality is what [4] (CUPID/SAIL)
characterises.  This module turns raw ToF readings into calibrated
distance estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.phy.tof import ToFConfig
from repro.util.filters import MedianFilter
from repro.util.units import SPEED_OF_LIGHT


@dataclass
class RangingEstimate:
    """One distance estimate with its supporting statistics."""

    distance_m: float
    n_readings: int
    median_cycles: float


class ToFRangeEstimator:
    """Streaming ToF -> distance estimator.

    The fixed turnaround offset (SIFS + hardware latencies) must be removed
    before converting cycles to metres; it is chipset-specific and obtained
    by :meth:`calibrate` against one known distance — the per-AP, per-model
    calibration step the ranging literature describes.
    """

    def __init__(
        self,
        config: ToFConfig = ToFConfig(),
        readings_per_estimate: int = 50,
    ) -> None:
        self.config = config
        self._median = MedianFilter(readings_per_estimate)
        self._offset_cycles: Optional[float] = float(config.turnaround_cycles)
        self.readings_per_estimate = readings_per_estimate

    @property
    def calibrated(self) -> bool:
        return self._offset_cycles is not None

    def calibrate(self, readings: Sequence[float], known_distance_m: float) -> float:
        """Derive the turnaround offset from readings at a known distance."""
        if known_distance_m < 0:
            raise ValueError("distance must be non-negative")
        if len(readings) < 3:
            raise ValueError("calibration needs at least a few readings")
        median = float(np.median(readings))
        roundtrip_cycles = 2.0 * known_distance_m / SPEED_OF_LIGHT * self.config.clock_hz
        self._offset_cycles = median - roundtrip_cycles
        return self._offset_cycles

    def cycles_to_distance(self, median_cycles: float) -> float:
        """Convert an offset-corrected ToF median to one-way distance."""
        if self._offset_cycles is None:
            raise ValueError("estimator is not calibrated")
        roundtrip_cycles = median_cycles - self._offset_cycles
        distance = roundtrip_cycles * SPEED_OF_LIGHT / self.config.clock_hz / 2.0
        return max(distance, 0.0)

    def push(self, tof_cycles: float) -> Optional[RangingEstimate]:
        """Add one raw reading; returns an estimate per completed batch."""
        median = self._median.push(tof_cycles)
        if median is None:
            return None
        return RangingEstimate(
            distance_m=self.cycles_to_distance(median),
            n_readings=self.readings_per_estimate,
            median_cycles=median,
        )

    def reset(self) -> None:
        self._median.reset()
