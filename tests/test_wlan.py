"""Unit tests for floorplan, multi-AP channels, traffic, and the stack."""

import numpy as np
import pytest

from repro.channel.config import ChannelConfig
from repro.mobility.scenarios import macro_scenario
from repro.mobility.trajectory import StaticTrajectory
from repro.sim import SimulationEngine, TimeGrid
from repro.util.geometry import Point
from repro.wlan.floorplan import Floorplan, default_office_floorplan
from repro.wlan.multilink import MultiApChannel
from repro.wlan.stack import StackSession, default_stack, mobility_aware_stack
from repro.wlan.traffic import TcpModel


class TestFloorplan:
    def test_default_office(self):
        floorplan = default_office_floorplan()
        assert floorplan.n_aps == 6
        x_min, y_min, x_max, y_max = floorplan.bounds
        for ap in floorplan.ap_positions:
            assert x_min <= ap.x <= x_max
            assert y_min <= ap.y <= y_max

    def test_nearest_ap(self):
        floorplan = default_office_floorplan()
        first_ap = floorplan.ap_positions[0]
        assert floorplan.nearest_ap(first_ap) == 0

    def test_random_position_inside(self):
        floorplan = default_office_floorplan()
        for seed in range(10):
            point = floorplan.random_client_position(seed)
            x_min, y_min, x_max, y_max = floorplan.bounds
            assert x_min <= point.x <= x_max
            assert y_min <= point.y <= y_max

    def test_validation(self):
        with pytest.raises(ValueError):
            Floorplan(ap_positions=())
        with pytest.raises(ValueError):
            Floorplan(ap_positions=(Point(0, 0),), bounds=(0, 0, 0, 10))


class TestMultiAp:
    def test_one_trace_per_ap(self):
        floorplan = default_office_floorplan()
        trajectory = StaticTrajectory(Point(10, 10)).sample(5.0, 0.02)
        multi = MultiApChannel(floorplan, seed=1).evaluate(trajectory, 0.1)
        assert len(multi.traces) == 6
        assert multi.rssi_matrix().shape == (len(multi.times), 6)

    def test_strongest_ap_is_nearby(self):
        floorplan = default_office_floorplan()
        near_first = Point(7.5, 6.5)  # AP 0 is at (7, 6)
        trajectory = StaticTrajectory(near_first).sample(3.0, 0.02)
        multi = MultiApChannel(floorplan, ChannelConfig(shadowing_sigma_db=0.0), seed=2).evaluate(
            trajectory, 0.1
        )
        assert multi.strongest_ap(0) == 0

    def test_selective_csi(self):
        floorplan = default_office_floorplan()
        trajectory = StaticTrajectory(Point(10, 10)).sample(2.0, 0.02)
        multi = MultiApChannel(floorplan, seed=3).evaluate(
            trajectory, 0.1, include_h_for=[1, 4]
        )
        assert multi.traces[1].h is not None
        assert multi.traces[4].h is not None
        assert multi.traces[0].h is None

    def test_distances(self):
        floorplan = default_office_floorplan()
        trajectory = StaticTrajectory(Point(7.0, 6.0)).sample(2.0, 0.02)
        multi = MultiApChannel(floorplan, seed=4).evaluate(trajectory, 0.1)
        assert np.allclose(multi.distances_to_ap(0), 0.0, atol=1e-9)


class TestTraffic:
    def test_tcp_protocol_efficiency(self):
        tcp = TcpModel(protocol_efficiency=0.9, recovery_s=1e-9)
        times = np.arange(0.0, 10.0, 0.1)
        goodput = np.full_like(times, 50.0)
        result = tcp.apply(times, goodput)
        assert np.allclose(result[1:], 45.0)

    def test_tcp_outage_recovery_ramp(self):
        tcp = TcpModel(recovery_s=2.0)
        times = np.arange(0.0, 10.0, 0.1)
        goodput = np.full_like(times, 50.0)
        goodput[30:35] = 0.0  # 0.5 s outage at t = 3
        result = tcp.apply(times, goodput)
        assert result[34] == 0.0
        after = result[35:55]
        assert after[0] < after[-1]  # ramping
        assert np.all(np.diff(after) >= -1e-9)

    def test_tcp_never_exceeds_mac_goodput(self):
        tcp = TcpModel()
        times = np.arange(0.0, 5.0, 0.1)
        rng = np.random.default_rng(0)
        goodput = rng.uniform(0.0, 80.0, size=len(times))
        result = tcp.apply(times, goodput)
        assert np.all(result <= goodput + 1e-9)

    def test_validation(self):
        tcp = TcpModel()
        with pytest.raises(ValueError):
            tcp.apply(np.array([0.0]), np.array([1.0, 2.0]))


class TestStack:
    OVERALL_CFG = ChannelConfig(tx_power_dbm=8.0, rician_k_db=-2.0, n_paths=16)

    def _multi(self, seed=1, duration=20.0):
        floorplan = default_office_floorplan()
        scenario = macro_scenario(
            Point(5, 5), area=(2.0, 2.0, 38.0, 23.0), seed=seed
        )
        trajectory = scenario.sample(duration, 0.02)
        return MultiApChannel(floorplan, self.OVERALL_CFG, seed=seed).evaluate(
            trajectory, sample_interval_s=0.1, include_h=True
        )

    @staticmethod
    def _run(multi, seed, *labels):
        """Co-run the ``aware`` and/or ``default`` arms on one engine."""
        arms = {"aware": mobility_aware_stack, "default": default_stack}
        engine = SimulationEngine(TimeGrid(multi.times))
        for label in labels:
            engine.add(StackSession(multi, arms[label](), seed=seed, client=label))
        results = engine.run()
        return tuple(results[label] for label in labels)

    def test_both_arms_produce_throughput(self):
        multi = self._multi()
        aware, default = self._run(multi, 2, "aware", "default")
        assert aware.mean_throughput_mbps > 1.0
        assert default.mean_throughput_mbps > 1.0

    def test_aware_arm_classifies(self):
        multi = self._multi(seed=3)
        (aware,) = self._run(multi, 4, "aware")
        assert len(aware.estimates) > 5

    def test_default_arm_does_not_classify(self):
        multi = self._multi(seed=5)
        (default,) = self._run(multi, 6, "default")
        assert default.estimates == []

    def test_aware_feeds_back_more_when_walking(self):
        multi = self._multi(seed=7)
        aware, default = self._run(multi, 8, "aware", "default")
        assert aware.n_feedbacks > default.n_feedbacks

    def test_aware_beats_default_on_walks(self):
        """The Fig. 13 headline on one walk."""
        multi = self._multi(seed=9, duration=30.0)
        aware, default = self._run(multi, 10, "aware", "default")
        assert aware.mean_throughput_mbps > default.mean_throughput_mbps
