"""Unit tests for A-MPDU aggregation and airtime accounting."""

import pytest

from repro.mac.aggregation import MAX_MPDUS, FrameTransmitter
from repro.mac.timing import MacTiming
from repro.phy.error import ErrorModel


@pytest.fixture
def transmitter():
    return FrameTransmitter(seed=1)


class TestSizing:
    def test_mpdu_duration_scales_inversely_with_rate(self, transmitter):
        assert transmitter.mpdu_duration_s(0) > transmitter.mpdu_duration_s(7)

    def test_mpdus_fit_aggregation_time(self, transmitter):
        n = transmitter.mpdus_for_aggregation_time(7, 0.004)
        duration = transmitter.mpdu_duration_s(7)
        assert n * duration <= 0.004 + duration
        assert n >= 1

    def test_block_ack_window_cap(self, transmitter):
        # At the top rate, a long aggregation time hits the 64-MPDU cap.
        assert transmitter.mpdus_for_aggregation_time(15, 0.008) == MAX_MPDUS

    def test_at_least_one_mpdu(self, transmitter):
        # Even when one MPDU exceeds the limit (low rate, short time).
        assert transmitter.mpdus_for_aggregation_time(0, 0.0005) == 1

    def test_invalid_aggregation_time(self, transmitter):
        with pytest.raises(ValueError):
            transmitter.mpdus_for_aggregation_time(7, 0.0)


class TestTransmit:
    def test_good_channel_delivers_everything(self, transmitter):
        result = transmitter.transmit(4, 35.0, 0.15, 0.004)
        assert result.block_ack_received
        assert result.n_delivered == result.n_mpdus
        assert result.delivered_bytes == result.n_mpdus * 1500

    def test_terrible_channel_loses_everything(self, transmitter):
        result = transmitter.transmit(7, -10.0, 0.15, 0.004)
        assert result.all_lost
        assert not result.block_ack_received

    def test_airtime_includes_fixed_overheads(self, transmitter):
        result = transmitter.transmit(4, 30.0, 0.15, 0.002)
        burst = result.n_mpdus * transmitter.mpdu_duration_s(4)
        assert result.airtime_s == pytest.approx(MacTiming().frame_overhead_s() + burst)

    def test_queued_mpdus_cap(self, transmitter):
        result = transmitter.transmit(7, 30.0, 0.15, 0.008, queued_mpdus=3)
        assert result.n_mpdus == 3

    def test_mobility_degrades_frame_tail(self, transmitter):
        """The Fig. 10 mechanism: within-frame staleness under mobility."""
        static = transmitter.expected_goodput_mbps(7, 28.0, 0.15, 0.008)
        walking = transmitter.expected_goodput_mbps(7, 28.0, 23.0, 0.008)
        assert walking < static * 0.9

    def test_short_aggregates_resist_mobility(self, transmitter):
        short = transmitter.expected_goodput_mbps(7, 28.0, 23.0, 0.002)
        long = transmitter.expected_goodput_mbps(7, 28.0, 23.0, 0.008)
        assert short > long

    def test_aggregation_crossover_static_vs_macro(self, transmitter):
        """Static prefers 8 ms; walking prefers 2 ms (Fig. 10(a))."""

        def best(doppler, agg_s):
            return max(
                transmitter.expected_goodput_mbps(m, 28.0, doppler, agg_s)
                for m in range(16)
            )

        assert best(0.15, 0.008) >= best(0.15, 0.002)
        assert best(23.0, 0.002) > best(23.0, 0.008)

    def test_instantaneous_per(self, transmitter):
        result = transmitter.transmit(4, 30.0, 0.15, 0.004)
        assert result.instantaneous_per == pytest.approx(
            1.0 - result.n_delivered / result.n_mpdus
        )

    def test_condition_penalty_only_for_two_streams(self, transmitter):
        one_stream = transmitter.expected_goodput_mbps(7, 25.0, 0.15, 0.004, mimo_condition_db=30.0)
        one_stream_good = transmitter.expected_goodput_mbps(7, 25.0, 0.15, 0.004, mimo_condition_db=0.0)
        assert one_stream == pytest.approx(one_stream_good)
        two_stream = transmitter.expected_goodput_mbps(15, 34.0, 0.15, 0.004, mimo_condition_db=30.0)
        two_stream_good = transmitter.expected_goodput_mbps(15, 34.0, 0.15, 0.004, mimo_condition_db=0.0)
        assert two_stream < two_stream_good

    def test_deterministic_with_seed(self):
        a = FrameTransmitter(seed=9).transmit(4, 16.0, 5.0, 0.004)
        b = FrameTransmitter(seed=9).transmit(4, 16.0, 5.0, 0.004)
        assert a.n_delivered == b.n_delivered

    def test_expected_goodput_matches_sampling(self):
        model = ErrorModel()
        transmitter = FrameTransmitter(error_model=model, seed=3)
        expected = transmitter.expected_goodput_mbps(4, 17.0, 0.15, 0.004)
        total_bytes = 0
        total_time = 0.0
        for _ in range(300):
            result = transmitter.transmit(4, 17.0, 0.15, 0.004)
            total_bytes += result.delivered_bytes
            total_time += result.airtime_s
        sampled = total_bytes * 8 / total_time / 1e6
        assert sampled == pytest.approx(expected, rel=0.1)
