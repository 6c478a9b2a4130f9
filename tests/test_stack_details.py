"""Focused tests of the integrated-stack internals."""

import numpy as np

from repro.channel.config import ChannelConfig
from repro.mobility.scenarios import macro_scenario
from repro.mobility.trajectory import StaticTrajectory
from repro.sim import SimulationEngine, TimeGrid
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel
from repro.wlan.stack import (
    StackComponents,
    StackSession,
    default_stack,
    mobility_aware_stack,
)

CFG = ChannelConfig(tx_power_dbm=8.0)


def _multi(trajectory, seed=1):
    floorplan = default_office_floorplan()
    return MultiApChannel(floorplan, CFG, seed=seed).evaluate(
        trajectory, sample_interval_s=0.1, include_h=True
    )


def _run(multi, seed, **arms):
    """Co-run one :class:`StackSession` per ``label=components`` arm."""
    engine = SimulationEngine(TimeGrid(multi.times))
    for label, components in arms.items():
        engine.add(StackSession(multi, components, seed=seed, client=label))
    return engine.run()


class TestStackComposition:
    def test_aware_stack_components(self):
        stack = mobility_aware_stack()
        assert stack.uses_classifier
        assert stack.roaming.name == "controller"
        assert stack.feedback.name == "mobility-aware"

    def test_default_stack_components(self):
        stack = default_stack()
        assert not stack.uses_classifier
        assert stack.roaming.name == "default"
        assert stack.aggregation.name == "fixed-4ms"

    def test_single_stream_ladders(self):
        from repro.phy.mcs import mcs_by_index

        for stack in (mobility_aware_stack(), default_stack()):
            rate = stack.rate
            inner = getattr(rate, "inner", rate)
            assert all(mcs_by_index(m).streams == 1 for m in inner.ladder)


class TestStackBehaviour:
    def test_static_client_few_handoffs_and_feedbacks(self):
        trajectory = StaticTrajectory(Point(8.0, 7.0)).sample(20.0, 0.02)
        multi = _multi(trajectory, seed=2)
        results = _run(multi, 3, aware=mobility_aware_stack(), default=default_stack())
        aware, default = results["aware"], results["default"]
        assert aware.n_handoffs == 0
        # A static client is classified static -> 2000 ms feedback; the
        # default stack polls every 200 ms.
        assert aware.n_feedbacks < default.n_feedbacks

    def test_goodput_timeline_shape(self):
        trajectory = StaticTrajectory(Point(8.0, 7.0)).sample(10.0, 0.02)
        multi = _multi(trajectory, seed=4)
        result = _run(multi, 5, default=default_stack())["default"]
        assert result.goodput_mbps.shape == multi.times.shape
        assert np.all(result.goodput_mbps >= 0.0)

    def test_walk_produces_estimates_of_both_families(self):
        scenario = macro_scenario(Point(5, 5), area=(2, 2, 38, 23), seed=6)
        trajectory = scenario.sample(30.0, 0.02)
        multi = _multi(trajectory, seed=6)
        aware = _run(multi, 7, aware=mobility_aware_stack())["aware"]
        modes = {e.mode.value for e in aware.estimates}
        assert modes & {"micro", "macro"}  # device mobility was seen

    def test_tcp_below_udp(self):
        trajectory = StaticTrajectory(Point(8.0, 7.0)).sample(10.0, 0.02)
        multi = _multi(trajectory, seed=8)
        result = _run(multi, 9, default=default_stack())["default"]
        assert result.tcp_throughput_mbps() <= result.mean_throughput_mbps + 1e-9

    def test_deterministic_given_seed(self):
        trajectory = StaticTrajectory(Point(8.0, 7.0)).sample(8.0, 0.02)
        multi = _multi(trajectory, seed=10)
        a = _run(multi, 11, default=default_stack())["default"]
        b = _run(multi, 11, default=default_stack())["default"]
        assert a.mean_throughput_mbps == b.mean_throughput_mbps


class TestMixedComposition:
    def test_partial_aware_stack_runs(self):
        """Users can mix aware and fixed components freely."""
        from repro.aggregation.policy import MobilityAwareAggregation
        from repro.beamforming.feedback import FixedPeriodFeedback
        from repro.rate.atheros import AtherosRateAdaptation
        from repro.roaming.schemes import DefaultClientRoaming
        from repro.phy.mcs import single_stream_mcs

        stack = StackComponents(
            roaming=DefaultClientRoaming(),
            rate=AtherosRateAdaptation(ladder=single_stream_mcs()),
            aggregation=MobilityAwareAggregation(),
            feedback=FixedPeriodFeedback(200.0),
            uses_classifier=True,
        )
        trajectory = StaticTrajectory(Point(8.0, 7.0)).sample(8.0, 0.02)
        multi = _multi(trajectory, seed=12)
        result = _run(multi, 13, mixed=stack)["mixed"]
        assert result.mean_throughput_mbps > 0.0
