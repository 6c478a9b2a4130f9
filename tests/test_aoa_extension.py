"""Unit tests for the AoA future-work extension (paper Section 9)."""

import math

import numpy as np
import pytest

from repro.core.aoa_extension import (
    AoAAugmentedDetector,
    AoAConfig,
    AoASampler,
    AoATrendDetector,
    estimate_aoa,
)
from repro.core.tof_trend import ToFTrend, ToFTrendConfig
from repro.phy.tof import ToFConfig, ToFSampler


class TestEstimateAoA:
    def test_recovers_steering_angle(self):
        for true_angle in (-0.8, -0.2, 0.0, 0.35, 1.0):
            m = np.arange(3)
            h = np.exp(-1j * math.pi * m * math.sin(true_angle))
            assert estimate_aoa(h) == pytest.approx(true_angle, abs=1e-6)

    def test_robust_to_common_gain(self):
        m = np.arange(3)
        h = 3.7 * np.exp(1j * 0.9) * np.exp(-1j * math.pi * m * math.sin(0.4))
        assert estimate_aoa(h) == pytest.approx(0.4, abs=1e-6)

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            estimate_aoa(np.array([1.0 + 0j]))


class TestAoATrendDetector:
    def _push_seconds(self, detector, angles):
        for angle in angles:
            for _ in range(detector.config.samples_per_median):
                detector.push(angle)

    def test_sweep_detected(self):
        detector = AoATrendDetector()
        self._push_seconds(detector, [0.0, 0.15, 0.30, 0.45, 0.60])
        assert detector.sweeping

    def test_constant_angle_no_sweep(self):
        detector = AoATrendDetector()
        self._push_seconds(detector, [0.5] * 6)
        assert not detector.sweeping

    def test_wobble_no_sweep(self):
        detector = AoATrendDetector()
        self._push_seconds(detector, [0.5, 0.55, 0.45, 0.52, 0.48, 0.5])
        assert not detector.sweeping

    def test_unwraps_through_pi(self):
        detector = AoATrendDetector()
        # Sweep crossing the +-pi boundary: 2.9 -> 3.05 -> -3.08 (=3.20)...
        angles = [2.9, 3.05, -(2 * math.pi - 3.20), -(2 * math.pi - 3.35), -(2 * math.pi - 3.50)]
        self._push_seconds(detector, angles)
        assert detector.sweeping

    def test_reset(self):
        detector = AoATrendDetector()
        self._push_seconds(detector, [0.0, 0.15, 0.30, 0.45, 0.60])
        detector.reset()
        assert not detector.sweeping
        assert not detector.window_full


class TestAugmentedDetector:
    def test_circular_walk_now_detected_as_macro(self):
        """The Section-9 failure case, fixed by the extension."""
        config = AoAConfig()
        detector = AoAAugmentedDetector(ToFTrendConfig())
        rng = np.random.default_rng(1)
        tof_sampler = ToFSampler(ToFConfig(), seed=2)
        aoa_sampler = AoASampler(config, seed=3)

        # Circle of radius 8 m at 1.2 m/s: constant distance, sweeping angle.
        t = np.arange(0.0, 12.0, 0.02)
        angles = 1.2 / 8.0 * t
        tof_readings = tof_sampler.sample(np.full_like(t, 8.0))
        aoa_readings = aoa_sampler.sample(angles)
        for tof, aoa in zip(tof_readings, aoa_readings):
            detector.push_tof(float(tof))
            detector.push_aoa(float(aoa))
        assert detector.is_macro  # AoA sweep caught the tangential walk
        del rng

    def test_micro_still_micro(self):
        detector = AoAAugmentedDetector(ToFTrendConfig())
        tof_sampler = ToFSampler(ToFConfig(), seed=4)
        aoa_sampler = AoASampler(seed=5)
        rng = np.random.default_rng(6)

        t = np.arange(0.0, 12.0, 0.02)
        distances = 8.0 + rng.normal(0.0, 0.05, len(t))
        angles = 0.4 + rng.normal(0.0, 0.02, len(t))  # wobble only
        for tof, aoa in zip(tof_sampler.sample(distances), aoa_sampler.sample(angles)):
            detector.push_tof(float(tof))
            detector.push_aoa(float(aoa))
        assert not detector.is_macro

    def test_radial_walk_keeps_heading(self):
        from repro.mobility.modes import Heading

        detector = AoAAugmentedDetector(ToFTrendConfig())
        tof_sampler = ToFSampler(ToFConfig(), seed=7)
        t = np.arange(0.0, 10.0, 0.02)
        distances = 8.0 + 1.2 * t
        for tof in tof_sampler.sample(distances):
            detector.push_tof(float(tof))
            detector.push_aoa(0.4)
        assert detector.is_macro
        assert detector.heading == Heading.AWAY
        assert detector.tof.trend_of(0) == ToFTrend.INCREASING
        detector.reset()
        assert not detector.is_macro
        assert detector.tof.medians_of(0) == []
