"""Deeper channel-model behaviour tests (mechanism-level)."""

import numpy as np

from repro.channel.config import CONFIG_20MHZ, ChannelConfig
from repro.channel.model import LinkChannel
from repro.core.similarity import csi_similarity_series
from repro.mobility.environment import EnvironmentActivity, EnvironmentProcess
from repro.mobility.trajectory import StaticTrajectory
from repro.util.geometry import Point

AP = Point(0.0, 0.0)


def _evaluate(position, duration=5.0, dt=0.05, seed=1, config=None, environment=None):
    trajectory = StaticTrajectory(position).sample(duration, dt)
    link = LinkChannel(AP, config or ChannelConfig(), environment=environment, seed=seed)
    return link.evaluate(trajectory.times, trajectory.positions, include_h=True)


class TestFrequencySelectivity:
    def test_channel_varies_across_subcarriers(self):
        trace = _evaluate(Point(10, 5))
        gains = np.abs(trace.h[0, :, 0, 0])
        assert np.std(gains) / np.mean(gains) > 0.05  # real multipath fades

    def test_higher_rician_k_flattens_the_channel(self):
        flat = _evaluate(Point(10, 5), config=ChannelConfig(rician_k_db=15.0), seed=2)
        selective = _evaluate(Point(10, 5), config=ChannelConfig(rician_k_db=-10.0), seed=2)
        def spread(trace):
            gains = np.abs(trace.h[0, :, 0, 0])
            return np.std(gains) / np.mean(gains)
        assert spread(flat) < spread(selective)

    def test_effective_snr_tracks_selectivity(self):
        flat = _evaluate(Point(10, 5), config=ChannelConfig(rician_k_db=15.0), seed=3)
        selective = _evaluate(Point(10, 5), config=ChannelConfig(rician_k_db=-10.0), seed=3)
        flat_gap = np.mean(flat.snr_db - flat.effective_snr_db)
        selective_gap = np.mean(selective.snr_db - selective.effective_snr_db)
        assert selective_gap > flat_gap  # deep notches cost effective SNR


class TestBandwidthConfigs:
    def test_20mhz_noise_floor_lower(self):
        wide = _evaluate(Point(10, 5), seed=4)
        narrow = _evaluate(Point(10, 5), config=CONFIG_20MHZ, seed=4)
        # Same geometry: the 20 MHz receiver integrates half the noise.
        assert np.mean(narrow.snr_db) > np.mean(wide.snr_db) + 2.0

    def test_subcarrier_count_respected(self):
        config = ChannelConfig(n_subcarriers=30)
        trace = _evaluate(Point(10, 5), config=config, seed=5)
        assert trace.h.shape[1] == 30


class TestAntennaConfigs:
    def test_antenna_dimensions(self):
        config = ChannelConfig(n_tx=4, n_rx=1)
        trace = _evaluate(Point(10, 5), config=config, seed=6)
        assert trace.h.shape[2:] == (4, 1)

    def test_single_rx_condition_degenerate(self):
        config = ChannelConfig(n_rx=1)
        trace = _evaluate(Point(10, 5), config=config, seed=7)
        # Rank-one channel: the "second singular value" is numerically nil,
        # so the condition number saturates very high.
        assert np.all(trace.mimo_condition_db > 30.0)


class TestEnvironmentMechanism:
    def test_weak_decorrelates_less_than_strong(self):
        weak_env = EnvironmentProcess.from_activity(EnvironmentActivity.WEAK)
        strong_env = EnvironmentProcess.from_activity(EnvironmentActivity.STRONG)
        weak = _evaluate(Point(10, 5), duration=30.0, environment=weak_env, seed=8)
        strong = _evaluate(Point(10, 5), duration=30.0, environment=strong_env, seed=8)
        lag = 10  # 500 ms
        weak_sim = np.mean(csi_similarity_series(weak.h, lag=lag))
        strong_sim = np.mean(csi_similarity_series(strong.h, lag=lag))
        assert weak_sim > strong_sim

    def test_blockage_depth_bounded(self):
        env = EnvironmentProcess.from_activity(EnvironmentActivity.STRONG)
        trace = _evaluate(Point(10, 5), duration=60.0, environment=env, seed=9)
        swing = np.max(trace.rssi_dbm) - np.min(trace.rssi_dbm)
        assert 2.0 < swing < 25.0  # visible dips, not absurd ones


class TestCsiMeasurement:
    def test_smoothing_reduces_noise(self):
        trace = _evaluate(Point(25, 5), seed=10)  # weak link: visible noise
        raw = trace.measured_csi(1, smooth_subcarriers=1)
        smooth = trace.measured_csi(1, smooth_subcarriers=5)
        raw_error = np.mean(np.abs(raw - trace.h) ** 2)
        smooth_error = np.mean(np.abs(smooth - trace.h) ** 2)
        assert smooth_error < raw_error * 0.6

    def test_independent_noise_per_rng(self):
        trace = _evaluate(Point(10, 5), seed=11)
        a = trace.measured_csi(1)
        b = trace.measured_csi(2)
        assert not np.array_equal(a, b)
