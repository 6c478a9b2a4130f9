"""Unit tests for the PHY substrate: MCS table, error model, ToF, feedback."""

import numpy as np
import pytest

from repro.mac.timing import MacTiming
from repro.phy.csi_feedback import (
    CSIFeedbackConfig,
    feedback_airtime_s,
    feedback_bytes,
)
from repro.phy.error import ErrorModel, sinr_with_stale_estimate
from repro.phy.mcs import MCS_TABLE, atheros_usable_mcs, mcs_by_index, single_stream_mcs
from repro.phy.tof import ToFConfig, ToFSampler, tof_cycles_for_distance
from repro.util.units import SPEED_OF_LIGHT


class TestMcsTable:
    def test_sixteen_entries(self):
        assert len(MCS_TABLE) == 16
        assert {m.index for m in MCS_TABLE} == set(range(16))

    def test_standard_rates(self):
        assert mcs_by_index(7).rate_mbps(20e6) == 65.0
        assert mcs_by_index(7).rate_mbps(40e6) == 135.0
        assert mcs_by_index(15).rate_mbps(40e6) == 270.0

    def test_short_gi_factor(self):
        m = mcs_by_index(15)
        assert m.rate_mbps(40e6, short_gi=True) == pytest.approx(300.0)

    def test_two_stream_doubles_rate(self):
        for ss in range(8):
            assert mcs_by_index(ss + 8).rate_mbps(40e6) == pytest.approx(
                2 * mcs_by_index(ss).rate_mbps(40e6)
            )

    def test_min_snr_monotone_within_stream_group(self):
        one_stream = [mcs_by_index(i).min_snr_db for i in range(8)]
        two_stream = [mcs_by_index(i).min_snr_db for i in range(8, 16)]
        assert one_stream == sorted(one_stream)
        assert two_stream == sorted(two_stream)

    def test_atheros_ladder_rate_ordered(self):
        ladder = atheros_usable_mcs()
        rates = [mcs_by_index(i).rate_mbps(40e6) for i in ladder]
        assert rates == sorted(rates)

    def test_atheros_ladder_skips(self):
        ladder = set(atheros_usable_mcs())
        # Skips MCS 5-7 (1SS) and MCS 8 (2SS) per the paper.
        assert not {5, 6, 7, 8} & ladder

    def test_single_stream_ladder(self):
        assert single_stream_mcs() == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            mcs_by_index(16)


class TestErrorModel:
    def test_per_monotone_decreasing_in_snr(self):
        model = ErrorModel()
        snrs = np.arange(0.0, 35.0, 1.0)
        pers = [model.per(4, s) for s in snrs]
        assert all(b <= a + 1e-12 for a, b in zip(pers, pers[1:]))

    def test_anchor_point(self):
        model = ErrorModel()
        m = mcs_by_index(4)
        # At min_snr, PER ~ 10% for the 1000-byte reference length.
        assert model.per(m, m.min_snr_db, payload_bytes=1000) == pytest.approx(0.1, abs=0.02)

    def test_longer_packets_fail_more(self):
        model = ErrorModel()
        short = model.per(4, 15.0, payload_bytes=500)
        long = model.per(4, 15.0, payload_bytes=1500)
        assert long > short

    def test_two_stream_needs_more_snr(self):
        model = ErrorModel()
        assert model.per(11, 18.0) > model.per(4, 18.0) - 0.3  # 2SS penalised
        # With a well-conditioned channel the penalty is just the 3 dB split.
        good = model.per(11, 25.0, mimo_condition_db=0.0)
        bad = model.per(11, 25.0, mimo_condition_db=25.0)
        assert bad > good

    def test_per_bounds(self):
        model = ErrorModel()
        assert 0.0 < model.per(0, -20.0) <= 1.0
        assert model.per(0, 60.0) >= model.per_floor

    def test_best_mcs_increases_with_snr(self):
        model = ErrorModel()
        picks = [model.best_mcs(snr) for snr in (2.0, 10.0, 20.0, 32.0)]
        rates = [mcs_by_index(p).rate_mbps(40e6) for p in picks]
        assert rates == sorted(rates)
        assert picks[-1] == 15

    def test_best_mcs_respects_candidates(self):
        model = ErrorModel()
        pick = model.best_mcs(35.0, candidates=single_stream_mcs())
        assert pick == 7

    def test_expected_goodput_positive_and_bounded(self):
        model = ErrorModel()
        goodput = model.expected_goodput_mbps(25.0)
        assert 0.0 < goodput <= 270.0


class TestStaleness:
    def test_fresh_estimate_is_transparent(self):
        assert sinr_with_stale_estimate(20.0, 1.0) == pytest.approx(20.0)

    def test_stale_estimate_caps_sinr(self):
        fresh = sinr_with_stale_estimate(40.0, 1.0)
        stale = sinr_with_stale_estimate(40.0, 0.7)
        assert stale < fresh
        # The cap binds harder at high SNR.
        low = sinr_with_stale_estimate(5.0, 0.7)
        assert (40.0 - stale) > (5.0 - low)

    def test_pilot_tracking_softens(self):
        hard = sinr_with_stale_estimate(30.0, 0.8, pilot_tracking=0.0)
        soft = sinr_with_stale_estimate(30.0, 0.8, pilot_tracking=0.95)
        assert soft > hard

    def test_monotone_in_correlation(self):
        sinrs = [sinr_with_stale_estimate(30.0, rho) for rho in (0.0, 0.5, 0.9, 1.0)]
        assert sinrs == sorted(sinrs)


class TestToF:
    def test_cycles_proportional_to_distance(self):
        cfg = ToFConfig()
        near = tof_cycles_for_distance(10.0, cfg)
        far = tof_cycles_for_distance(20.0, cfg)
        expected = 2 * 10.0 / SPEED_OF_LIGHT * cfg.clock_hz
        assert far - near == pytest.approx(expected)

    def test_one_cycle_is_6_8m_roundtrip(self):
        cfg = ToFConfig()
        assert cfg.metres_per_cycle == pytest.approx(6.81, abs=0.02)

    def test_sampler_unbiased_up_to_outliers(self):
        cfg = ToFConfig(outlier_probability=0.0, quantize=False)
        sampler = ToFSampler(cfg, seed=1)
        readings = sampler.sample(np.full(5000, 15.0))
        assert np.mean(readings) == pytest.approx(tof_cycles_for_distance(15.0, cfg), abs=0.1)

    def test_outliers_are_late_only(self):
        clean_cfg = ToFConfig(outlier_probability=0.0, noise_std_cycles=0.0, quantize=False)
        noisy_cfg = ToFConfig(outlier_probability=0.5, noise_std_cycles=0.0, quantize=False)
        clean = tof_cycles_for_distance(15.0, clean_cfg)
        readings = ToFSampler(noisy_cfg, seed=2).sample(np.full(1000, 15.0))
        assert np.all(readings >= clean - 1e-9)
        assert np.max(readings) > clean + 1.0

    def test_quantisation(self):
        cfg = ToFConfig(quantize=True)
        sampler = ToFSampler(cfg, seed=3)
        readings = sampler.sample(np.full(100, 12.0))
        steps = readings / cfg.resolution_cycles
        assert np.allclose(steps, np.round(steps))

    def test_median_filter_recovers_trend(self):
        # Walking away at 1.2 m/s: per-second medians of noisy quantised
        # readings must still ramp.
        cfg = ToFConfig()
        sampler = ToFSampler(cfg, seed=4)
        t = np.arange(0.0, 8.0, 0.02)
        distances = 10.0 + 1.2 * t
        readings = sampler.sample(distances)
        medians = [np.median(readings[i : i + 50]) for i in range(0, len(readings) - 50, 50)]
        assert medians[-1] > medians[0]

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            ToFSampler(seed=5).sample(np.array([-1.0]))


class TestCsiFeedback:
    def test_report_size(self):
        cfg = CSIFeedbackConfig(n_subcarriers=52, n_tx=3, n_rx=1, bits_per_component=8)
        # 52*3*1 complex entries at 2 bytes each + 40 header = 352.
        assert feedback_bytes(cfg) == 40 + 52 * 3 * 2

    def test_airtime_includes_protocol_overheads(self):
        cfg = CSIFeedbackConfig()
        airtime = feedback_airtime_s(cfg)
        transmit_only = feedback_bytes(cfg) * 8 / (cfg.feedback_rate_mbps * 1e6)
        assert airtime > transmit_only

    def test_more_antennas_bigger_report(self):
        small = feedback_bytes(CSIFeedbackConfig(n_tx=2))
        large = feedback_bytes(CSIFeedbackConfig(n_tx=4))
        assert large > small

    def test_timing_defaults_sane(self):
        timing = MacTiming()
        assert timing.sifs_s < timing.difs_s
        assert timing.frame_overhead_s() > 100e-6
