"""Unit tests for the baseline rate-control schemes and the simulator."""

import numpy as np
import pytest

from repro.channel.perturbations import PerturbationConfig
from repro.core.hints import MobilityEstimate
from repro.mac.aggregation import AggregatedFrameResult, FrameTransmitter
from repro.mobility.modes import Heading, MobilityMode
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.base import PhyFeedback
from repro.rate.esnr import ESNRRate
from repro.rate.oracle import optimal_rate_hold_times, optimal_rate_series
from repro.rate.rapidsample import HintAwareRateControl, RapidSample
from repro.rate.samplerate import SampleRate
from repro.rate.simulator import simulate_rate_control
from repro.rate.softrate import SoftRate

from repro.testing import synthetic_trace


def frame(mcs, delivered, total=32):
    return AggregatedFrameResult(
        mcs_index=mcs,
        n_mpdus=total,
        n_delivered=delivered,
        airtime_s=0.004,
        mpdu_payload_bytes=1500,
        block_ack_received=delivered > 0,
    )


class TestRapidSample:
    def test_steps_down_on_failure(self):
        ra = RapidSample()
        top = ra.current_mcs
        ra.observe(0.0, frame(top, 0))
        assert ra.position == len(ra.ladder) - 2

    def test_steps_up_after_streak(self):
        ra = RapidSample(up_after_successes=2, failure_memory_s=0.0)
        ra.set_position(3)
        ra.observe(0.0, frame(ra.current_mcs, 32))
        ra.observe(0.1, frame(ra.current_mcs, 32))
        assert ra.position == 4

    def test_failure_memory_quarantines_rate(self):
        ra = RapidSample(up_after_successes=1, failure_memory_s=0.5)
        ra.set_position(4)
        failed_rate = ra.current_mcs
        ra.observe(0.0, frame(failed_rate, 0))  # drops to position 3
        assert ra.position == 3
        ra.observe(0.01, frame(ra.current_mcs, 32))
        assert ra.position == 3  # rate above failed 10 ms ago: quarantined
        ra.observe(0.6, frame(ra.current_mcs, 32))
        assert ra.position == 4  # memory expired

    def test_partial_loss_counts_as_failure(self):
        ra = RapidSample()
        top = ra.current_mcs
        ra.observe(0.0, frame(top, 10))  # 69% loss
        assert ra.position == len(ra.ladder) - 2


class TestHintAware:
    def test_switches_engine_on_hint(self):
        scheme = HintAwareRateControl()
        assert isinstance(scheme.active, SampleRate)
        scheme.update_hint(MobilityEstimate(0.0, MobilityMode.MICRO))
        assert isinstance(scheme.active, RapidSample)
        scheme.update_hint(MobilityEstimate(1.0, MobilityMode.STATIC))
        assert isinstance(scheme.active, SampleRate)

    def test_environmental_is_not_mobile(self):
        scheme = HintAwareRateControl()
        scheme.update_hint(MobilityEstimate(0.0, MobilityMode.ENVIRONMENTAL))
        assert isinstance(scheme.active, SampleRate)

    def test_direct_hint(self):
        scheme = HintAwareRateControl()
        scheme.set_mobile(True)
        assert isinstance(scheme.active, RapidSample)


class TestSampleRate:
    def test_prefers_measured_throughput(self):
        ra = SampleRate(seed=0, sample_fraction=0.001)
        # Teach it that the top rate fails and a mid rate works.
        ra.observe(0.0, frame(ra._ladder[-1], 0, total=32))
        ra.observe(0.1, frame(ra._ladder[5], 32, total=32))
        pick = ra.select(0.2)
        assert pick != ra._ladder[-1]

    def test_sampling_happens(self):
        ra = SampleRate(seed=1, sample_fraction=0.5)
        ra.observe(0.0, frame(ra._ladder[4], 32))
        picks = {ra.select(0.001 * i) for i in range(50)}
        assert len(picks) > 1  # samples neighbours


class TestSoftRate:
    def test_steps_down_when_predicted_per_high(self):
        ra = SoftRate(seed=0, estimate_noise_db=0.0)
        ra.set_position(7)
        mcs = ra.current_mcs
        ra.observe(0.0, frame(mcs, 20), PhyFeedback(soft_snr_db=0.0))
        assert ra.position == 6

    def test_steps_up_when_headroom(self):
        ra = SoftRate(seed=0, estimate_noise_db=0.0)
        ra.set_position(2)
        ra.observe(0.0, frame(ra.current_mcs, 32), PhyFeedback(soft_snr_db=40.0))
        assert ra.position == 3

    def test_without_softphy_falls_back(self):
        ra = SoftRate(seed=0)
        top = ra.current_mcs
        ra.observe(0.0, frame(top, 0), None)
        assert ra.position == len(ra.ladder) - 2


class TestESNR:
    def test_jumps_directly_to_best_rate(self):
        ra = ESNRRate(seed=0, calibration_bias_std_db=0.0)
        ra.observe(0.0, frame(ra.select(0.0), 32), PhyFeedback(esnr_db=6.0))
        low_pick = ra.select(0.1)
        ra.observe(0.1, frame(low_pick, 32), PhyFeedback(esnr_db=40.0))
        high_pick = ra.select(0.2)
        from repro.phy.mcs import mcs_by_index

        assert mcs_by_index(high_pick).rate_mbps() > mcs_by_index(low_pick).rate_mbps()

    def test_condition_awareness(self):
        ra = ESNRRate(seed=0, calibration_bias_std_db=0.0)
        ra.observe(0.0, frame(15, 32), PhyFeedback(esnr_db=30.0, mimo_condition_db=0.0))
        good = ra.select(0.1)
        ra.observe(0.1, frame(good, 32), PhyFeedback(esnr_db=30.0, mimo_condition_db=30.0))
        bad = ra.select(0.2)
        from repro.phy.mcs import mcs_by_index

        assert mcs_by_index(bad).streams == 1 or mcs_by_index(bad).rate_mbps() <= mcs_by_index(good).rate_mbps()


class TestOracle:
    def test_series_constant_on_flat_trace(self):
        trace = synthetic_trace(snr_db=20.0)
        series = optimal_rate_series(trace)
        assert len(set(series.tolist())) == 1

    def test_hold_times_sum_to_duration(self):
        trace = synthetic_trace(snr_db=20.0, duration_s=10.0, dt=0.05)
        holds = optimal_rate_hold_times(trace)
        assert np.sum(holds) == pytest.approx(10.0, abs=0.1)


class TestSimulator:
    def test_good_link_achieves_high_throughput(self):
        trace = synthetic_trace(snr_db=32.0, condition_db=0.0)
        result = simulate_rate_control(
            AtherosRateAdaptation(),
            trace,
            transmitter=FrameTransmitter(seed=1),
            perturbations=None,
        )
        assert result.throughput_mbps > 100.0

    def test_dead_link_delivers_nothing(self):
        trace = synthetic_trace(snr_db=-15.0)
        result = simulate_rate_control(
            AtherosRateAdaptation(),
            trace,
            transmitter=FrameTransmitter(seed=2),
            perturbations=None,
        )
        assert result.throughput_mbps < 1.0

    def test_hints_are_delivered_in_order(self):
        trace = synthetic_trace(snr_db=25.0)
        ra = AtherosRateAdaptation()
        seen = []
        original = ra.update_hint
        ra.update_hint = lambda est: seen.append(est.time_s)  # type: ignore
        hints = [
            MobilityEstimate(1.0, MobilityMode.MICRO),
            MobilityEstimate(3.0, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True),
        ]
        simulate_rate_control(
            ra, trace, transmitter=FrameTransmitter(seed=3), hints=hints, perturbations=None
        )
        assert seen == [1.0, 3.0]
        del original

    def test_interference_reduces_throughput(self):
        trace = synthetic_trace(snr_db=28.0, duration_s=20.0)
        clean = simulate_rate_control(
            AtherosRateAdaptation(),
            trace,
            transmitter=FrameTransmitter(seed=4),
            perturbations=None,
        )
        noisy = simulate_rate_control(
            AtherosRateAdaptation(),
            trace,
            transmitter=FrameTransmitter(seed=4),
            perturbations=PerturbationConfig(interference_rate_hz=3.0),
        )
        assert noisy.throughput_mbps < clean.throughput_mbps

    def test_timeline_recording(self):
        trace = synthetic_trace(snr_db=25.0, duration_s=2.0)
        result = simulate_rate_control(
            AtherosRateAdaptation(),
            trace,
            transmitter=FrameTransmitter(seed=5),
            record_timeline=True,
            perturbations=None,
        )
        assert len(result.frame_times) == result.n_frames
        assert all(b >= a for a, b in zip(result.frame_times, result.frame_times[1:]))

    def test_retries_beat_no_retries_under_interference(self):
        """The paper's central rate-control claim, reduced to a unit test."""
        trace = synthetic_trace(snr_db=26.0, duration_s=30.0, doppler_hz=8.0)
        config = PerturbationConfig(interference_rate_hz=1.5)
        stock = simulate_rate_control(
            AtherosRateAdaptation(retries_before_down=0),
            trace,
            transmitter=FrameTransmitter(seed=6),
            perturbations=config,
        )
        with_retries = simulate_rate_control(
            AtherosRateAdaptation(retries_before_down=2),
            trace,
            transmitter=FrameTransmitter(seed=6),
            perturbations=config,
        )
        assert with_retries.throughput_mbps > stock.throughput_mbps
