"""Time-of-Flight measurement from the data-ACK exchange (paper Section 2.4).

The Atheros chipset timestamps the Time-of-Departure of a data packet and
the Time-of-Arrival of the client's ACK at the PHY layer (Fig. 3); their
difference, minus the fixed SIFS turnaround, contains the round-trip
propagation time — proportional to the AP-client distance.

Commodity constraints modelled here, following [4] (CUPID):

* quantisation to the 44 MHz baseband clock (one cycle ~ 6.8 m round trip);
* Gaussian jitter from interpolation/detection noise;
* occasional heavy-tailed outliers (multipath-induced late detection) —
  the reason the paper uses a per-second **median** filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.util.rng import SeedLike, ensure_rng
from repro.util.units import SPEED_OF_LIGHT

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ToFConfig:
    """Measurement characteristics of the ToF exchange."""

    clock_hz: float = 44e6
    #: Std of per-reading Gaussian jitter, in clock cycles.
    noise_std_cycles: float = 0.8
    #: Probability of a heavy-tailed outlier reading.
    outlier_probability: float = 0.05
    #: Outliers are late detections: positive bias with this std.
    outlier_std_cycles: float = 4.0
    #: Fixed turnaround (SIFS + hardware offsets), in cycles.  Constant per
    #: chipset, so it cancels in trends; kept for realistic absolute values.
    turnaround_cycles: float = 704.0
    #: Quantise readings (commodity behaviour).
    quantize: bool = True
    #: Reporting resolution in cycles.  The AR93xx timestamps carry a
    #: fractional field beyond the 44 MHz counter (used by CUPID/SAIL for
    #: sub-metre ranging), so readings resolve below one full cycle.
    resolution_cycles: float = 0.25

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.noise_std_cycles < 0 or self.outlier_std_cycles < 0:
            raise ValueError("noise magnitudes must be non-negative")
        if not 0.0 <= self.outlier_probability < 1.0:
            raise ValueError("outlier probability must be in [0, 1)")

    @property
    def metres_per_cycle(self) -> float:
        """One clock cycle of *round-trip* time, in metres of path."""
        return SPEED_OF_LIGHT / self.clock_hz


def tof_cycles_for_distance(distance_m: ArrayLike, config: ToFConfig = ToFConfig()) -> ArrayLike:
    """Noise-free ToF reading (cycles) for an AP-client distance."""
    distance = np.asarray(distance_m, dtype=float)
    cycles = 2.0 * distance / SPEED_OF_LIGHT * config.clock_hz + config.turnaround_cycles
    if np.isscalar(distance_m):
        return float(cycles)
    return cycles


class ToFSampler:
    """Draws noisy ToF readings for a sequence of true distances."""

    def __init__(self, config: ToFConfig = ToFConfig(), seed: SeedLike = None) -> None:
        self.config = config
        self._rng = ensure_rng(seed)

    def sample(self, distance_m: ArrayLike) -> ArrayLike:
        """One noisy reading per input distance."""
        cfg = self.config
        distance = np.atleast_1d(np.asarray(distance_m, dtype=float))
        if np.any(distance < 0):
            raise ValueError("distances must be non-negative")
        readings = tof_cycles_for_distance(distance, cfg) + self._rng.normal(
            0.0, cfg.noise_std_cycles, size=distance.shape
        )
        if cfg.outlier_probability > 0.0:
            outliers = self._rng.random(distance.shape) < cfg.outlier_probability
            late = np.abs(self._rng.normal(0.0, cfg.outlier_std_cycles, size=distance.shape))
            readings = readings + np.where(outliers, late, 0.0)
        if cfg.quantize:
            readings = np.round(readings / cfg.resolution_cycles) * cfg.resolution_cycles
        if np.isscalar(distance_m):
            return float(readings[0])
        return readings
