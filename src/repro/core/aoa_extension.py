"""Angle-of-Arrival augmentation — the paper's Section-9 future work.

The base classifier mislabels a client circling its AP as micro-mobility:
the ToF (distance) trend never moves on a circle.  The paper proposes
augmenting the system with Angle-of-Arrival (AoA) information "to address
this limitation".

This module implements that extension.  A multi-antenna AP can estimate
the dominant AoA of the client's uplink frames from the per-antenna CSI
phase ramp.  Circular motion leaves the distance constant but sweeps the
AoA steadily; confined micro-motion wobbles the AoA without a sustained
sweep.  The same trend machinery used for ToF applies, on the *unwrapped*
angle series:

* ToF trend        -> macro (radial motion), heading towards/away
* AoA sweep trend  -> macro (tangential motion), no radial heading
* neither          -> micro

Like the ToF pipeline, AoA readings are noisy per frame and are aggregated
with a per-second circular-median filter before trend detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.batched import BatchedToFTrendDetector
from repro.core.tof_trend import ToFTrend, ToFTrendConfig, detect_trend
from repro.mobility.modes import Heading
from repro.util.filters import MovingWindow
from repro.util.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class AoAConfig:
    """Measurement and detection parameters for the AoA pipeline."""

    #: Per-reading angular noise (radians std) of the array estimate.
    noise_std_rad: float = 0.06
    #: Readings per aggregation period (one second at frame cadence).
    samples_per_median: int = 50
    #: Trend window in aggregation periods.
    window_periods: int = 5
    #: Minimum net angular sweep to call tangential macro-mobility.
    #: Walking a circle of radius r sweeps v/r rad/s (~0.15 rad/s at 8 m),
    #: so a 5-period window accumulates ~0.6 rad.
    min_net_rad: float = 0.3
    #: Maximum contradictory step inside a sweep window.
    step_tolerance_rad: float = 0.15

    def __post_init__(self) -> None:
        if self.noise_std_rad < 0:
            raise ValueError("noise must be non-negative")
        if self.samples_per_median < 1 or self.window_periods < 2:
            raise ValueError("aggregation parameters out of range")
        if self.min_net_rad <= 0 or self.step_tolerance_rad < 0:
            raise ValueError("trend thresholds out of range")


def estimate_aoa(h_narrowband: np.ndarray) -> float:
    """Dominant AoA (radians) from a ULA channel snapshot ``(n_tx,)``.

    The phase ramp across a half-wavelength ULA is ``-pi * sin(theta)`` per
    element; the average adjacent-element phase difference inverts it.
    """
    h = np.asarray(h_narrowband).ravel()
    if len(h) < 2:
        raise ValueError("AoA needs at least two antenna elements")
    cross = h[1:] * np.conj(h[:-1])
    phase = float(np.angle(np.sum(cross)))
    # phase = -pi * sin(theta)  ->  theta = arcsin(-phase / pi)
    return math.asin(max(-1.0, min(1.0, -phase / math.pi)))


class AoASampler:
    """Draws noisy AoA readings for a sequence of true client angles."""

    def __init__(self, config: AoAConfig = AoAConfig(), seed: SeedLike = None) -> None:
        self.config = config
        self._rng = ensure_rng(seed)

    def sample(self, true_angles_rad: np.ndarray) -> np.ndarray:
        angles = np.asarray(true_angles_rad, dtype=float)
        noise = self._rng.normal(0.0, self.config.noise_std_rad, size=angles.shape)
        return angles + noise


class AoATrendDetector:
    """Streaming AoA pipeline: per-second circular medians + sweep trend.

    Incoming angles are unwrapped against the previous aggregate so a
    client circling through the +-pi boundary keeps a continuous series.
    """

    def __init__(self, config: AoAConfig = AoAConfig()) -> None:
        self.config = config
        self._batch: List[float] = []
        self._window = MovingWindow(config.window_periods)
        self._trend = ToFTrend.NONE
        self._reference: Optional[float] = None

    @property
    def sweeping(self) -> bool:
        """True when a sustained angular sweep (tangential motion) holds."""
        return self._trend != ToFTrend.NONE

    @property
    def window_full(self) -> bool:
        return self._window.full

    def push(self, angle_rad: float) -> Optional[bool]:
        """Add one AoA reading; returns the sweep flag per completed period."""
        if self._reference is not None:
            # Unwrap against the running reference.
            while angle_rad - self._reference > math.pi:
                angle_rad -= 2.0 * math.pi
            while angle_rad - self._reference < -math.pi:
                angle_rad += 2.0 * math.pi
        self._batch.append(float(angle_rad))
        if len(self._batch) < self.config.samples_per_median:
            return None
        median = float(np.median(self._batch))
        self._batch.clear()
        self._reference = median
        self._window.push(median)
        if self._window.full:
            self._trend = detect_trend(
                self._window.values(),
                self.config.step_tolerance_rad,
                self.config.min_net_rad,
            )
        else:
            self._trend = ToFTrend.NONE
        return self.sweeping

    def reset(self) -> None:
        self._batch.clear()
        self._window.clear()
        self._trend = ToFTrend.NONE
        self._reference = None


class AoAAugmentedDetector:
    """Combined device-mobility splitter: ToF trend OR AoA sweep -> macro.

    Owns a one-row :class:`repro.core.batched.BatchedToFTrendDetector`
    built from ``tof_config`` and an :class:`AoATrendDetector`; a client is
    macro-mobile if its distance trends (radial walking, with heading)
    *or* its angle sweeps (tangential walking, heading unknown).
    """

    def __init__(
        self,
        tof_config: ToFTrendConfig = ToFTrendConfig(),
        aoa_detector: Optional[AoATrendDetector] = None,
    ) -> None:
        self.tof = BatchedToFTrendDetector(1, tof_config)
        self.aoa = aoa_detector or AoATrendDetector()

    @property
    def is_macro(self) -> bool:
        return self.tof.trend_of(0) != ToFTrend.NONE or self.aoa.sweeping

    @property
    def heading(self) -> Heading:
        return self.tof.trend_of(0).heading  # AoA sweeps carry no towards/away heading

    def push_tof(self, reading_cycles: float) -> None:
        self.tof.push_one(0, reading_cycles)

    def push_aoa(self, angle_rad: float) -> None:
        self.aoa.push(angle_rad)

    def reset(self) -> None:
        self.tof.reset_rows(np.array([0]))
        self.aoa.reset()
