"""Unit tests for ToF median filtering and trend detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedToFTrendDetector
from repro.core.tof_trend import ToFTrend, ToFTrendConfig, detect_trend
from repro.mobility.modes import Heading
from repro.phy.tof import ToFConfig, ToFSampler


class TestDetectTrend:
    def test_clean_increase(self):
        assert detect_trend([1.0, 2.0, 3.0, 4.0], 0.5, 0.8) == ToFTrend.INCREASING

    def test_clean_decrease(self):
        assert detect_trend([4.0, 3.0, 2.0, 1.0], 0.5, 0.8) == ToFTrend.DECREASING

    def test_plateaus_tolerated(self):
        """Quantised medians plateau; the trend must still be callable."""
        assert detect_trend([10.0, 10.0, 11.0, 11.0], 0.5, 0.8) == ToFTrend.INCREASING

    def test_small_backward_step_tolerated(self):
        assert detect_trend([10.0, 10.4, 10.1, 11.2], 0.5, 0.8) == ToFTrend.INCREASING

    def test_large_contradiction_rejected(self):
        assert detect_trend([10.0, 12.0, 10.2, 12.5], 0.5, 0.8) == ToFTrend.NONE

    def test_insufficient_net_change(self):
        # Micro mobility: fluctuation without net distance change.
        assert detect_trend([10.0, 10.2, 10.3, 10.5], 0.5, 0.8) == ToFTrend.NONE

    def test_too_short_window(self):
        assert detect_trend([10.0], 0.5, 0.8) == ToFTrend.NONE

    def test_heading_mapping(self):
        assert ToFTrend.INCREASING.heading == Heading.AWAY
        assert ToFTrend.DECREASING.heading == Heading.TOWARDS
        assert ToFTrend.NONE.heading == Heading.NONE


class TestConfig:
    def test_samples_per_median(self):
        config = ToFTrendConfig(sample_interval_s=0.02, median_period_s=1.0)
        assert config.samples_per_median == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            ToFTrendConfig(window_periods=1)
        with pytest.raises(ValueError):
            ToFTrendConfig(sample_interval_s=0.0)
        with pytest.raises(ValueError):
            ToFTrendConfig(min_net_cycles=0.0)

    def test_zero_step_tolerance_accepted(self):
        """Tolerance 0 = strictly monotone windows required; it is valid."""
        config = ToFTrendConfig(step_tolerance_cycles=0.0)
        assert config.step_tolerance_cycles == 0.0

    def test_negative_step_tolerance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ToFTrendConfig(step_tolerance_cycles=-0.1)

    def test_zero_min_net_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToFTrendConfig(min_net_cycles=0.0)

    def test_negative_min_net_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToFTrendConfig(min_net_cycles=-1.0)

    def test_min_median_samples_boundaries(self):
        with pytest.raises(ValueError):
            ToFTrendConfig(min_median_samples=0)
        assert ToFTrendConfig(min_median_samples=1).effective_min_median_samples == 1
        # Default: half the nominal samples per median (50/s -> 25).
        assert ToFTrendConfig(time_aware=True).effective_min_median_samples == 25


def _single(config=ToFTrendConfig()):
    """A one-row detector: the single-stream ToF pipeline."""
    return BatchedToFTrendDetector(1, config)


class TestDetector:
    def _push_seconds(self, detector, values_per_second):
        """Push one second (50 samples) per listed median value."""
        for value in values_per_second:
            for _ in range(50):
                detector.push_one(0, value)

    def test_no_trend_before_window_fills(self):
        detector = _single()
        self._push_seconds(detector, [100, 101, 102, 103])  # window of 5 not full
        assert not detector.window_full[0]
        assert detector.trend_of(0) == ToFTrend.NONE

    def test_macro_away_detected(self):
        detector = _single()
        self._push_seconds(detector, [100, 101, 102, 103, 104])
        assert detector.window_full[0]
        assert detector.trend_of(0) == ToFTrend.INCREASING
        assert detector.trend_of(0).heading == Heading.AWAY

    def test_macro_towards_detected(self):
        detector = _single()
        self._push_seconds(detector, [104, 103, 102, 101, 100])
        assert detector.trend_of(0).heading == Heading.TOWARDS

    def test_micro_noise_gives_no_trend(self):
        detector = _single()
        self._push_seconds(detector, [100, 100.3, 99.9, 100.2, 100.1])
        assert detector.window_full[0]
        assert detector.trend_of(0) == ToFTrend.NONE

    def test_rows_are_independent(self):
        """Away, towards and micro rows side by side in one block push."""
        detector = BatchedToFTrendDetector(3)
        per_second = [
            [100, 101, 102, 103, 104],
            [104, 103, 102, 101, 100],
            [100, 100.3, 99.9, 100.2, 100.1],
        ]
        for second in range(5):
            block = np.repeat([[row[second]] for row in per_second], 50, axis=1)
            detector.push_block(np.arange(3), block.astype(float))
        assert [detector.trend_of(i) for i in range(3)] == [
            ToFTrend.INCREASING,
            ToFTrend.DECREASING,
            ToFTrend.NONE,
        ]
        assert detector.medians_of(1) == [104.0, 103.0, 102.0, 101.0, 100.0]
        detector.reset_rows(np.array([0]))
        assert detector.trend_of(0) == ToFTrend.NONE
        assert detector.trend_of(1) == ToFTrend.DECREASING

    def test_reset_clears_window(self):
        detector = _single()
        self._push_seconds(detector, [100, 101, 102, 103, 104])
        detector.reset_rows(np.array([0]))
        assert not detector.window_full[0]
        assert detector.trend_of(0) == ToFTrend.NONE

    def test_median_robust_to_outlier_readings(self):
        detector = _single()
        for second in range(5):
            base = 100.0 + second
            for i in range(50):
                value = base + (40.0 if i % 10 == 0 else 0.0)  # 10% outliers
                detector.push_one(0, value)
        assert detector.trend_of(0) == ToFTrend.INCREASING

    def test_median_closes_on_period_boundary(self):
        detector = _single()
        for _ in range(49):
            detector.push_one(0, 100.0)
        assert detector.medians_of(0) == []
        detector.push_one(0, 100.0)
        assert detector.medians_of(0) == [100.0]


class TestBlockMatchesPerReading:
    """``push_block`` over random chunks equals ``push_one`` per reading."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        samples_per_median=st.integers(1, 7),
        window=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        chunks=st.lists(st.integers(0, 12), min_size=1, max_size=25),
    )
    def test_block_equals_per_reading(self, n, samples_per_median, window, seed, chunks):
        config = ToFTrendConfig(
            sample_interval_s=0.02,
            median_period_s=0.02 * samples_per_median,
            window_periods=window,
        )
        rng = np.random.default_rng(seed)
        # Quarter-cycle quantised readings drifting per row, so windows
        # trend, plateau and reverse.
        drift = rng.uniform(-0.5, 0.5, size=(n, 1))
        total = sum(chunks)
        steps = drift * np.arange(total) + rng.normal(0.0, 0.8, size=(n, total))
        readings = np.round((700.0 + steps) * 4.0) / 4.0
        blocked = BatchedToFTrendDetector(n, config)
        looped = BatchedToFTrendDetector(n, config)
        start = 0
        for length in chunks:
            blocked.push_block(np.arange(n), readings[:, start : start + length])
            for i in range(n):
                for value in readings[i, start : start + length]:
                    looped.push_one(i, float(value))
            start += length
            assert np.array_equal(blocked.trend, looped.trend)
            for i in range(n):
                assert blocked.medians_of(i) == looped.medians_of(i)
            for counter in ("n_gaps", "n_medians_discarded", "n_windows_invalidated"):
                assert np.array_equal(getattr(blocked, counter), getattr(looped, counter))


class TestTimeAwareDetector:
    """Wall-clock aggregation and gap invalidation (time_aware=True)."""

    def _config(self, **kwargs):
        return ToFTrendConfig(time_aware=True, min_median_samples=10, **kwargs)

    def _push_seconds(self, detector, values_per_second, t0=0.0, interval=0.02):
        t = t0
        for value in values_per_second:
            for _ in range(50):
                detector.push_one(0, value, time_s=t)
                t += interval
        return t

    def test_requires_timestamp(self):
        detector = _single(self._config())
        with pytest.raises(ValueError, match="time_s"):
            detector.push_one(0, 100.0)
        with pytest.raises(RuntimeError, match="push_one"):
            detector.push_block(np.array([0]), np.array([[100.0]]))

    def test_uniform_cadence_matches_count_based(self):
        # 1/64 s is exactly representable, so period boundaries land on
        # sample timestamps with no float drift: both detectors must see
        # identical batches and produce identical medians and trends.
        interval = 1.0 / 64.0
        timed = _single(
            ToFTrendConfig(sample_interval_s=interval, time_aware=True, min_median_samples=10)
        )
        counted = _single(ToFTrendConfig(sample_interval_s=interval))
        for i in range(64 * 6 + 1):
            value = 100.0 + (i // 64)
            timed.push_one(0, value, time_s=i * interval)
            counted.push_one(0, value)
        assert timed.trend_of(0) == counted.trend_of(0) == ToFTrend.INCREASING
        assert timed.medians_of(0) == counted.medians_of(0)
        assert timed.n_gaps[0] == 0

    def test_sparse_period_emits_gap_and_invalidates(self):
        detector = _single(self._config())
        self._push_seconds(detector, [100, 101, 102, 103, 104])
        # One second with only 3 readings: below min_median_samples.  The
        # first push closes the healthy [4 s, 5 s) period -> window fills.
        for t in (5.1, 5.5, 5.9):
            detector.push_one(0, 105.0, time_s=t)
        assert detector.window_full[0]
        assert detector.trend_of(0) == ToFTrend.INCREASING
        detector.push_one(0, 106.0, time_s=6.05)  # closes the sparse period
        assert detector.n_gaps[0] == 1
        assert detector.n_medians_discarded[0] == 1
        assert detector.n_windows_invalidated[0] == 1
        assert not detector.window_full[0]
        assert detector.trend_of(0) == ToFTrend.NONE

    def test_total_outage_collapses_to_one_gap(self):
        detector = _single(self._config())
        end = self._push_seconds(detector, [100, 101])
        # 10 s of silence, then readings resume.
        detector.push_one(0, 110.0, time_s=end + 10.0)
        # The open period closes (full: 50 samples) and the empty span
        # collapses into a single gap marker, not ten.
        assert detector.n_gaps[0] == 1
        assert detector.n_medians_discarded[0] == 0  # no partial data lost
        assert detector.trend_of(0) == ToFTrend.NONE
        assert not detector.window_full[0]

    def test_window_rebuilds_after_gap(self):
        detector = _single(self._config())
        self._push_seconds(detector, [100, 101, 102, 103, 104])
        detector.push_one(0, 105.0, time_s=20.0)  # long outage
        assert detector.trend_of(0) == ToFTrend.NONE
        # Six more seconds of readings: five fresh periods close and the
        # trend window rebuilds from contiguous medians only.
        self._push_seconds(detector, [106, 107, 108, 109, 110, 111], t0=20.02)
        assert detector.trend_of(0) == ToFTrend.INCREASING

    def test_slow_drift_not_stretched_into_trend(self):
        """The bug this mode fixes: 50% sample loss must not let a
        sub-threshold drift accumulate over a stretched window."""
        drift_per_s = 0.15  # cycles/s: needs ~6.7 s to clear min_net=1.0
        # Count-based detector with half the samples missing: each "second"
        # of medians actually spans 2 s, the 5-median window spans ~10 s,
        # and the net change (~1.5 cycles) fakes a macro trend.
        counted = _single()
        timed = _single(self._config())
        rng = np.random.default_rng(9)
        t = 0.0
        while t < 14.0:
            value = 100.0 + drift_per_s * t
            if rng.random() >= 0.5:  # 50% drop
                counted.push_one(0, value)
                timed.push_one(0, value, time_s=t)
            t += 0.02
        assert counted.trend_of(0) == ToFTrend.INCREASING  # the silent corruption
        assert timed.trend_of(0) == ToFTrend.NONE  # wall-clock windows stay honest

    def test_reset_drops_partial_timed_batch(self):
        detector = _single(self._config())
        for i in range(30):
            detector.push_one(0, 100.0, time_s=0.02 * i)
        detector.reset_rows(np.array([0]))
        # A new episode starting later must not inherit the half batch.
        detector.push_one(0, 200.0, time_s=50.0)
        assert detector.n_gaps[0] == 0
        assert detector.medians_of(0) == []


class TestEndToEnd:
    """The full ToF pipeline on simulated walks (the Fig. 4 mechanics)."""

    def _detect(self, distances, seed):
        """Trend after each completed one-second median."""
        sampler = ToFSampler(ToFConfig(), seed=seed)
        readings = sampler.sample(distances)
        detector = _single()
        per = detector.config.samples_per_median
        trends = []
        for start in range(0, len(readings) - per + 1, per):
            detector.push_block(np.array([0]), readings[None, start : start + per])
            trends.append(detector.trend_of(0))
        return trends

    def test_walking_away_yields_increasing(self):
        t = np.arange(0.0, 10.0, 0.02)
        distances = 8.0 + 1.2 * t
        trends = self._detect(distances, seed=1)
        assert ToFTrend.INCREASING in trends[4:]

    def test_walking_towards_yields_decreasing(self):
        t = np.arange(0.0, 10.0, 0.02)
        distances = 25.0 - 1.2 * t
        trends = self._detect(distances, seed=2)
        assert ToFTrend.DECREASING in trends[4:]

    def test_confined_micro_motion_mostly_no_trend(self):
        rng = np.random.default_rng(3)
        t = np.arange(0.0, 40.0, 0.02)
        distances = 12.0 + 0.4 * np.sin(0.8 * t) + rng.normal(0, 0.05, len(t))
        trends = self._detect(distances, seed=3)
        full_window = trends[4:]
        fraction_trending = np.mean([tr != ToFTrend.NONE for tr in full_window])
        assert fraction_trending < 0.2

    def test_circular_walk_fools_the_detector(self):
        """The documented Section-9 limitation."""
        t = np.arange(0.0, 30.0, 0.02)
        distances = np.full_like(t, 8.0)  # circle around the AP
        trends = self._detect(distances, seed=4)
        assert all(tr == ToFTrend.NONE for tr in trends[4:])
