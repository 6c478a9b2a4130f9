"""Focused tests of the roaming simulator internals."""

import numpy as np

from repro.channel.config import ChannelConfig
from repro.core.classifier import ClassifierConfig
from repro.mobility.scenarios import macro_scenario
from repro.mobility.trajectory import ApproachRetreatTrajectory, StaticTrajectory
from repro.roaming.schemes import ControllerRoaming, DefaultClientRoaming
from repro.roaming.simulator import RoamingSession
from repro.sim import SimulationEngine, TimeGrid
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel

CFG = ChannelConfig(tx_power_dbm=8.0)


def _multi(trajectory, seed=1, include_h=True):
    floorplan = default_office_floorplan()
    return MultiApChannel(floorplan, CFG, seed=seed).evaluate(
        trajectory, sample_interval_s=0.1, include_h=include_h
    )


def _run(multi, *sessions):
    """Run ``sessions`` on one engine over the walk; results in session order."""
    engine = SimulationEngine(TimeGrid(multi.times))
    for session in sessions:
        engine.add(session)
    results = engine.run()
    return [results[session.client] for session in sessions]


class TestControllerDecisionQuality:
    def test_forced_roams_happen_while_leaving_a_cell(self):
        """Controller roams are forced (no client scans) and occur during
        macro-away motion."""
        floorplan = default_office_floorplan()
        # Walk straight from AP0's cell towards AP2's cell.
        trajectory = ApproachRetreatTrajectory(
            anchor=floorplan.ap_positions[0],
            start=Point(8.0, 6.5),
            min_distance_m=1.0,
            max_distance_m=28.0,
            leg_duration_s=60.0,
            start_towards=False,
            seed=2,
        ).sample(25.0, 0.02)
        multi = _multi(trajectory, seed=3)
        (result,) = _run(multi, RoamingSession(multi, ControllerRoaming(), seed=4))
        forced = [h for h in result.handoffs if h.forced_by_controller]
        assert forced, "leaving the cell must trigger a controller roam"
        # The roam happens after the trend window can fill (~6 s).
        assert forced[0].time_s > 5.0

    def test_static_client_is_never_forced(self):
        trajectory = StaticTrajectory(Point(8.0, 7.0)).sample(30.0, 0.02)
        multi = _multi(trajectory, seed=5)
        (result,) = _run(multi, RoamingSession(multi, ControllerRoaming(), seed=6))
        assert not any(h.forced_by_controller for h in result.handoffs)

    def test_handoff_events_reference_valid_aps(self):
        scenario = macro_scenario(Point(4, 4), area=(2, 2, 38, 23), seed=7)
        trajectory = scenario.sample(40.0, 0.02)
        multi = _multi(trajectory, seed=7)
        (result,) = _run(multi, RoamingSession(multi, ControllerRoaming(), seed=8))
        for event in result.handoffs:
            assert 0 <= event.from_ap < 6
            assert 0 <= event.to_ap < 6
            assert event.from_ap != event.to_ap

    def test_ap_timeline_consistent_with_handoffs(self):
        scenario = macro_scenario(Point(4, 4), area=(2, 2, 38, 23), seed=9)
        trajectory = scenario.sample(30.0, 0.02)
        multi = _multi(trajectory, seed=9)
        (result,) = _run(multi, RoamingSession(multi, ControllerRoaming(), seed=10))
        changes = int(np.sum(np.diff(result.ap_timeline) != 0))
        assert changes == len(result.handoffs)


class TestOutageAccounting:
    def test_forced_handoff_cheaper_than_client_handoff(self):
        """802.11r-style forced roams cost less outage than scan+associate."""
        scenario = macro_scenario(Point(4, 4), area=(2, 2, 38, 23), seed=11)
        trajectory = scenario.sample(40.0, 0.02)
        multi = _multi(trajectory, seed=11)
        slow, fast = _run(
            multi,
            RoamingSession(
                multi, ControllerRoaming(), forced_handoff_outage_s=0.5, seed=12, client="slow"
            ),
            RoamingSession(
                multi, ControllerRoaming(), forced_handoff_outage_s=0.05, seed=12, client="fast"
            ),
        )
        slow_outage = float(np.mean(slow.goodput_mbps == 0.0))
        fast_outage = float(np.mean(fast.goodput_mbps == 0.0))
        assert fast_outage <= slow_outage

    def test_scan_outage_counted(self):
        trajectory = StaticTrajectory(Point(38.0, 23.0)).sample(20.0, 0.02)  # weak corner
        multi = _multi(trajectory, seed=13, include_h=False)
        (result,) = _run(
            multi, RoamingSession(multi, DefaultClientRoaming(rssi_threshold_dbm=-40.0), seed=14)
        )
        # With an absurd threshold the client scans constantly.
        assert result.n_scans > 2


class TestClassifierIntegration:
    def test_classifier_reset_on_roam(self):
        """After a roam the (new) serving AP must re-learn: the first
        seconds after a handoff must not carry macro estimates."""
        floorplan = default_office_floorplan()
        trajectory = ApproachRetreatTrajectory(
            anchor=floorplan.ap_positions[0],
            start=Point(8.0, 6.5),
            min_distance_m=1.0,
            max_distance_m=28.0,
            leg_duration_s=60.0,
            start_towards=False,
            seed=15,
        ).sample(30.0, 0.02)
        multi = _multi(trajectory, seed=16)
        config = ClassifierConfig()
        (result,) = _run(
            multi, RoamingSession(multi, ControllerRoaming(), classifier_config=config, seed=17)
        )
        # Sanity only: the run completes with a coherent timeline.
        assert len(result.times) == len(result.goodput_mbps)


class TestNeighborRanging:
    def test_reports_include_distance(self):
        """Neighbour APs report ToF-ranged distance (paper Section 3.1)."""
        from repro.roaming.base import RoamingDecision, RoamingScheme

        captured = {}

        class Probe(RoamingScheme):
            name = "probe"

            def decide(self, ctx):
                captured["report"] = ctx.neighbor_report()
                return RoamingDecision()

        trajectory = StaticTrajectory(Point(10.0, 10.0)).sample(5.0, 0.02)
        multi = _multi(trajectory, seed=20, include_h=False)
        _run(multi, RoamingSession(multi, Probe(), seed=21))
        report = captured["report"]
        distances = [obs.distance_m for obs in report.values()]
        assert all(d is not None for d in distances)
        # Ranged distances are commodity-grade: within a few metres.
        floorplan = default_office_floorplan()
        for ap_index, obs in report.items():
            true = np.hypot(
                10.0 - floorplan.ap_positions[ap_index].x,
                10.0 - floorplan.ap_positions[ap_index].y,
            )
            assert abs(obs.distance_m - true) < 6.0
