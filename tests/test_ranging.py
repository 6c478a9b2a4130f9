"""Tests for ToF-based ranging."""

import numpy as np
import pytest

from repro.phy.ranging import ToFRangeEstimator
from repro.phy.tof import ToFConfig, ToFSampler, tof_cycles_for_distance


class TestEstimator:
    def test_default_offset_from_config(self):
        estimator = ToFRangeEstimator()
        clean = tof_cycles_for_distance(15.0)
        assert estimator.cycles_to_distance(clean) == pytest.approx(15.0, abs=1e-6)

    def test_calibration_recovers_offset(self):
        config = ToFConfig(turnaround_cycles=900.0, noise_std_cycles=0.0, quantize=False,
                           outlier_probability=0.0)
        sampler = ToFSampler(config, seed=1)
        readings = sampler.sample(np.full(100, 10.0))
        # Start mis-calibrated, then calibrate at the known 10 m point.
        estimator = ToFRangeEstimator(ToFConfig(turnaround_cycles=0.0))
        estimator.calibrate(readings, known_distance_m=10.0)
        clean = 2 * 25.0 / 3e8 * config.clock_hz + 900.0
        assert estimator.cycles_to_distance(clean) == pytest.approx(25.0, rel=0.01)

    def test_negative_distances_clamped(self):
        estimator = ToFRangeEstimator()
        assert estimator.cycles_to_distance(0.0) == 0.0

    def test_streaming_estimates(self):
        config = ToFConfig()
        sampler = ToFSampler(config, seed=2)
        estimator = ToFRangeEstimator(config, readings_per_estimate=50)
        readings = sampler.sample(np.full(200, 12.0))
        estimates = [estimator.push(float(r)) for r in readings]
        produced = [e for e in estimates if e is not None]
        assert len(produced) == 4
        for estimate in produced:
            # Commodity ToF ranging: a few metres of error is expected.
            assert abs(estimate.distance_m - 12.0) < 6.0

    def test_calibration_validation(self):
        estimator = ToFRangeEstimator()
        with pytest.raises(ValueError):
            estimator.calibrate([1.0], known_distance_m=5.0)
        with pytest.raises(ValueError):
            estimator.calibrate([1.0, 2.0, 3.0], known_distance_m=-1.0)

    def test_error_is_commodity_grade(self):
        """Median ranging error lands in the CUPID-reported few-metre range."""
        config = ToFConfig()
        rng = np.random.default_rng(4)
        # Hold each distance for one full batch (a static measurement set).
        distances = np.repeat(rng.uniform(5.0, 30.0, size=5000)[:100], 50)
        readings = ToFSampler(config, seed=3).sample(distances)
        estimator = ToFRangeEstimator(config)
        errors = []
        for reading, truth in zip(readings, distances):
            estimate = estimator.push(float(reading))
            if estimate is not None:
                errors.append(estimate.distance_m - truth)
        assert len(errors) == 100
        assert np.median(np.abs(errors)) < 4.0  # commodity-grade, CUPID-like
        assert abs(np.mean(errors)) < 2.0  # outliers are median-filtered away
