"""Golden-value determinism tests for the engine-backed simulators.

Every value below was recorded by running the *pre-refactor* hand-rolled
loops (the integrated stack, roaming, scheduling, hinted rate control and
``sense_and_classify``) at the stated seeds, before the outer loops moved
into :class:`repro.sim.SimulationEngine`.  The refactor is required to be
bit-identical: sessions replay the same RNG draws in the same order, and
the engine's step windows tile the grid exactly as the free-running frame
loops did.  Any drift here means the engine changed the simulation, not
just its plumbing.

The stack and roaming arms are co-run as sessions on one engine, the way
the Fig. 7/Fig. 13 harnesses run them: each arm owns its RNG streams and
components, so sharing the engine must not move a single bit.

Seeds: stack walk/channel 1234, stack protocols 99; roaming walk/channel
77, roaming protocols 42; scheduler transmitter 3; sensing 5 and 11.
"""

import numpy as np
import pytest

from repro.channel.config import ChannelConfig
from repro.core.hints import MobilityEstimate
from repro.experiments.common import classification_decisions, sense_and_classify
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.scenarios import macro_scenario, static_scenario
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.simulator import simulate_rate_control
from repro.roaming.schemes import ControllerRoaming, DefaultClientRoaming
from repro.roaming.simulator import RoamingSession
from repro.sim import SimulationEngine, TimeGrid
from repro.testing import synthetic_trace
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel
from repro.wlan.scheduler import (
    MobilityAwareScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    SchedulingSession,
)
from repro.wlan.stack import StackSession, default_stack, mobility_aware_stack

AREA = (2.0, 2.0, 38.0, 23.0)


class TestStackGolden:
    """Fig. 13-style integrated stack, 12 s walk, seeds 1234 / 99."""

    @pytest.fixture(scope="class")
    def multi(self):
        floorplan = default_office_floorplan()
        scenario = macro_scenario(Point(5.0, 5.0), area=AREA, seed=1234)
        trajectory = scenario.sample(12.0, 0.02)
        cfg = ChannelConfig(
            tx_power_dbm=8.0, rician_k_db=-2.0, n_paths=16, shadowing_sigma_db=5.0
        )
        return MultiApChannel(floorplan, cfg, seed=1234).evaluate(
            trajectory, sample_interval_s=0.1, include_h=True
        )

    @pytest.fixture(scope="class")
    def results(self, multi):
        engine = SimulationEngine(TimeGrid(multi.times))
        engine.add(StackSession(multi, mobility_aware_stack(), seed=99, client="aware"))
        engine.add(StackSession(multi, default_stack(), seed=99, client="default"))
        return engine.run()

    def test_mobility_aware_stack_matches_prerefactor(self, results):
        aware = results["aware"]
        assert aware.mean_throughput_mbps == 113.269
        assert (aware.n_handoffs, aware.n_scans, aware.n_feedbacks) == (1, 0, 166)
        assert int(aware.ap_timeline.sum()) == 51
        assert [float(x) for x in aware.goodput_mbps[:3]] == [94.2, 85.56, 105.96]

    def test_default_stack_matches_prerefactor(self, results):
        default = results["default"]
        assert default.mean_throughput_mbps == 100.23199999999999
        assert (default.n_handoffs, default.n_scans, default.n_feedbacks) == (1, 1, 59)
        assert int(default.ap_timeline.sum()) == 8


class TestRoamingGolden:
    """Fig. 7-style roaming comparison, 12 s walk, seeds 77 / 42."""

    @pytest.fixture(scope="class")
    def multi(self):
        floorplan = default_office_floorplan()
        scenario = macro_scenario(Point(6.0, 6.0), area=AREA, seed=77)
        trajectory = scenario.sample(12.0, 0.02)
        cfg = ChannelConfig(tx_power_dbm=8.0, shadowing_sigma_db=3.0)
        return MultiApChannel(floorplan, cfg, seed=77).evaluate(
            trajectory, sample_interval_s=0.1, include_h=True
        )

    @pytest.fixture(scope="class")
    def results(self, multi):
        mobile = np.ones(len(multi.times), dtype=bool)
        engine = SimulationEngine(TimeGrid(multi.times))
        for scheme_cls in (DefaultClientRoaming, ControllerRoaming):
            engine.add(
                RoamingSession(
                    multi,
                    scheme_cls(),
                    device_mobile_truth=mobile,
                    mac_efficiency=0.65,
                    seed=42,
                    client=scheme_cls.__name__,
                )
            )
        return engine.run()

    @pytest.mark.parametrize(
        "scheme_cls, mean_mbps, n_handoffs, n_scans",
        [
            (DefaultClientRoaming, 154.0955428304599, 1, 1),
            (ControllerRoaming, 171.76983748747293, 1, 0),
        ],
    )
    def test_roaming_matches_prerefactor(
        self, results, scheme_cls, mean_mbps, n_handoffs, n_scans
    ):
        result = results[scheme_cls.__name__]
        assert result.mean_throughput_mbps == mean_mbps
        assert (len(result.handoffs), result.n_scans) == (n_handoffs, n_scans)


class TestSchedulerGolden:
    """Three synthetic clients, transmitter seed 3."""

    @pytest.fixture(scope="class")
    def traces(self):
        return [
            synthetic_trace(snr_db=22.0, duration_s=10.0),
            synthetic_trace(snr_db=lambda t: 10.0 + 1.2 * t, duration_s=10.0, doppler_hz=23.0),
            synthetic_trace(snr_db=lambda t: 34.0 - 1.2 * t, duration_s=10.0, doppler_hz=23.0),
        ]

    @pytest.fixture(scope="class")
    def hints(self):
        return [
            [MobilityEstimate(0.1, MobilityMode.STATIC)],
            [MobilityEstimate(0.1, MobilityMode.MACRO, Heading.TOWARDS, tof_window_full=True)],
            [MobilityEstimate(0.1, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True)],
        ]

    @pytest.mark.parametrize(
        "scheduler_cls, use_hints, per_client, slots",
        [
            (
                RoundRobinScheduler,
                False,
                [41.58806892616657, 17.840682338459597, 35.78023174130749],
                [803, 802, 802],
            ),
            (
                ProportionalFairScheduler,
                False,
                [34.103598949282095, 17.27666499361015, 43.13318539196103],
                [715, 743, 952],
            ),
            (
                MobilityAwareScheduler,
                True,
                [31.442577806818026, 14.087297458742356, 50.100227719646455],
                [596, 667, 1145],
            ),
        ],
    )
    def test_scheduler_matches_prerefactor(
        self, traces, hints, scheduler_cls, use_hints, per_client, slots
    ):
        engine = SimulationEngine(TimeGrid(traces[0].times))
        session = engine.add(
            SchedulingSession(
                scheduler_cls(), traces, hints=hints if use_hints else None, transmitter_seed=3
            )
        )
        result = engine.run()[session.client]
        assert result.per_client_mbps == per_client
        assert result.slots_served == slots


class TestRateControlGolden:
    def test_hinted_rate_control_matches_prerefactor(self):
        """A hint delivered 50 ms late (at 2.05 s), default transmitter
        (seed 0) and the default 4 ms aggregation: the only engine golden
        that pins :class:`repro.rate.simulator.RateControlSession`."""
        trace = synthetic_trace(snr_db=lambda t: 25.0 - 0.8 * t, duration_s=10.0, doppler_hz=15.0)
        hints = [
            MobilityEstimate(2.0 + 0.050, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True)
        ]
        result = simulate_rate_control(AtherosRateAdaptation(), trace, hints=hints)
        assert result.throughput_mbps == 82.76583136641489
        assert result.n_frames == 2391


class TestSensingGolden:
    def test_sense_and_classify_matches_prerefactor(self):
        sensed = sense_and_classify(
            macro_scenario(Point(10.0, 4.0), seed=5), Point(0.0, 0.0), duration_s=30.0, seed=5
        )
        assert len(sensed.hints) == 59
        assert sensed.hints[0].mode == MobilityMode.MICRO

    def test_classification_decisions_matches_prerefactor(self):
        outcome = classification_decisions(
            static_scenario(Point(8.0, 3.0)), Point(0.0, 0.0), duration_s=40.0, seed=11
        )
        assert len(outcome) == 70
        assert outcome.accuracy() == 1.0
