"""Unit tests for roaming schemes and the roaming simulator."""

import numpy as np

from repro.channel.config import ChannelConfig
from repro.core.hints import MobilityEstimate
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.trajectory import StaticTrajectory, WaypointWalkTrajectory
from repro.roaming.base import NeighborObservation, RoamingContext
from repro.roaming.schemes import (
    ControllerRoaming,
    DefaultClientRoaming,
    SensorHintRoaming,
    StickToFirstAp,
)
from repro.roaming.simulator import RoamingSession
from repro.sim import SimulationEngine, TimeGrid
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel


class FakeContext(RoamingContext):
    """Scriptable context for scheme unit tests."""

    def __init__(
        self,
        now=0.0,
        current=0,
        rssi={0: -60.0, 1: -70.0},
        moving=False,
        estimate=None,
        headings=None,
    ):
        self._now = now
        self._current = current
        self._rssi = dict(rssi)
        self._moving = moving
        self._estimate = estimate
        self._headings = headings or {ap: Heading.NONE for ap in rssi}
        self.scan_count = 0

    @property
    def now_s(self):
        return self._now

    @property
    def current_ap(self):
        return self._current

    @property
    def n_aps(self):
        return len(self._rssi)

    def current_rssi_dbm(self):
        return self._rssi[self._current]

    def scan(self):
        self.scan_count += 1
        return dict(self._rssi)

    def accelerometer_moving(self):
        return self._moving

    def mobility_estimate(self):
        return self._estimate

    def neighbor_report(self):
        return {
            ap: NeighborObservation(rssi_dbm=self._rssi[ap], heading=self._headings[ap])
            for ap in self._rssi
        }


def macro_away(t=0.0):
    return MobilityEstimate(t, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True)


class TestDefaultRoaming:
    def test_no_scan_when_signal_strong(self):
        ctx = FakeContext(rssi={0: -55.0, 1: -40.0})
        decision = DefaultClientRoaming().decide(ctx)
        assert not decision.wants_roam
        assert ctx.scan_count == 0

    def test_scans_and_roams_when_weak(self):
        ctx = FakeContext(rssi={0: -80.0, 1: -55.0})
        decision = DefaultClientRoaming().decide(ctx)
        assert ctx.scan_count == 1
        assert decision.target_ap == 1
        assert not decision.forced

    def test_scan_holdoff(self):
        scheme = DefaultClientRoaming(scan_holdoff_s=5.0)
        ctx = FakeContext(now=0.0, rssi={0: -80.0, 1: -81.0})
        scheme.decide(ctx)
        ctx2 = FakeContext(now=1.0, rssi={0: -80.0, 1: -81.0})
        scheme.decide(ctx2)
        assert ctx2.scan_count == 0  # within holdoff

    def test_no_roam_without_better_ap(self):
        ctx = FakeContext(rssi={0: -80.0, 1: -81.0})
        decision = DefaultClientRoaming().decide(ctx)
        assert not decision.wants_roam


class TestSensorHintRoaming:
    def test_mobile_hint_triggers_periodic_scan(self):
        scheme = SensorHintRoaming(mobile_scan_period_s=5.0)
        ctx = FakeContext(rssi={0: -60.0, 1: -50.0}, moving=True)
        decision = scheme.decide(ctx)
        assert ctx.scan_count == 1
        assert decision.target_ap == 1

    def test_static_client_never_scans_early(self):
        scheme = SensorHintRoaming()
        ctx = FakeContext(rssi={0: -60.0, 1: -40.0}, moving=False)
        decision = scheme.decide(ctx)
        assert ctx.scan_count == 0
        assert not decision.wants_roam

    def test_margin_prevents_ping_pong(self):
        scheme = SensorHintRoaming(switch_margin_db=5.0)
        ctx = FakeContext(rssi={0: -60.0, 1: -58.0}, moving=True)
        decision = scheme.decide(ctx)
        assert not decision.wants_roam  # only 2 dB better


class TestControllerRoaming:
    def test_roams_when_away_and_candidate_exists(self):
        ctx = FakeContext(
            rssi={0: -70.0, 1: -65.0},
            estimate=macro_away(),
            headings={0: Heading.AWAY, 1: Heading.TOWARDS},
        )
        decision = ControllerRoaming().decide(ctx)
        assert decision.target_ap == 1
        assert decision.forced

    def test_ignores_stronger_ap_client_is_leaving(self):
        ctx = FakeContext(
            rssi={0: -70.0, 1: -60.0},
            estimate=macro_away(),
            headings={0: Heading.AWAY, 1: Heading.AWAY},  # moving away from both
        )
        decision = ControllerRoaming().decide(ctx)
        assert not decision.forced

    def test_static_client_untouched(self):
        ctx = FakeContext(
            rssi={0: -70.0, 1: -50.0},
            estimate=MobilityEstimate(0.0, MobilityMode.STATIC),
            headings={0: Heading.NONE, 1: Heading.TOWARDS},
        )
        decision = ControllerRoaming().decide(ctx)
        assert not decision.forced

    def test_moving_towards_current_ap_untouched(self):
        estimate = MobilityEstimate(
            0.0, MobilityMode.MACRO, Heading.TOWARDS, tof_window_full=True
        )
        ctx = FakeContext(
            rssi={0: -70.0, 1: -50.0},
            estimate=estimate,
            headings={0: Heading.TOWARDS, 1: Heading.TOWARDS},
        )
        decision = ControllerRoaming().decide(ctx)
        assert not decision.forced

    def test_cooldown(self):
        scheme = ControllerRoaming(roam_cooldown_s=5.0)
        ctx = FakeContext(
            now=0.0,
            rssi={0: -70.0, 1: -65.0},
            estimate=macro_away(),
            headings={0: Heading.AWAY, 1: Heading.TOWARDS},
        )
        assert scheme.decide(ctx).forced
        ctx2 = FakeContext(
            now=2.0,
            current=1,
            rssi={0: -60.0, 1: -70.0},
            estimate=macro_away(2.0),
            headings={0: Heading.TOWARDS, 1: Heading.AWAY},
        )
        assert not scheme.decide(ctx2).forced  # cooldown active

    def test_candidate_needs_comparable_rssi(self):
        ctx = FakeContext(
            rssi={0: -60.0, 1: -75.0},
            estimate=macro_away(),
            headings={0: Heading.AWAY, 1: Heading.TOWARDS},
        )
        decision = ControllerRoaming(candidate_margin_db=0.0).decide(ctx)
        assert not decision.forced  # candidate much weaker


class TestSimulator:
    ROAM_CFG = ChannelConfig(tx_power_dbm=8.0)

    def _multi(self, trajectory, seed=1, include_h=False):
        floorplan = default_office_floorplan()
        channel = MultiApChannel(floorplan, self.ROAM_CFG, seed=seed)
        return channel.evaluate(trajectory, sample_interval_s=0.1, include_h=include_h)

    @staticmethod
    def _run(multi, seed, **schemes):
        """Co-run one :class:`RoamingSession` per ``label=scheme`` arm."""
        engine = SimulationEngine(TimeGrid(multi.times))
        for label, scheme in schemes.items():
            engine.add(RoamingSession(multi, scheme, seed=seed, client=label))
        return engine.run()

    def test_stick_never_roams(self):
        trajectory = WaypointWalkTrajectory(Point(5, 5), area=(1, 1, 39, 24), seed=2).sample(
            20.0, 0.02
        )
        multi = self._multi(trajectory)
        result = self._run(multi, 3, stick=StickToFirstAp())["stick"]
        assert len(result.handoffs) == 0
        assert len(set(result.ap_timeline.tolist())) == 1

    def test_handoff_causes_outage(self):
        trajectory = WaypointWalkTrajectory(Point(5, 5), area=(1, 1, 39, 24), seed=6).sample(
            30.0, 0.02
        )
        multi = self._multi(trajectory)
        result = self._run(multi, 7, default=DefaultClientRoaming())["default"]
        assert result.handoffs
        event = result.handoffs[0]
        index = int(np.searchsorted(result.times, event.time_s))
        assert result.goodput_mbps[index] == 0.0

    def test_static_client_default_scheme_stable(self):
        trajectory = StaticTrajectory(Point(8, 7)).sample(20.0, 0.02)
        multi = self._multi(trajectory, seed=8)
        result = self._run(multi, 9, default=DefaultClientRoaming())["default"]
        assert len(result.handoffs) == 0
        assert result.mean_throughput_mbps > 1.0

    def test_controller_beats_stick_on_walks(self):
        """The Fig. 7 headline, reduced to a single long walk."""
        trajectory = WaypointWalkTrajectory(Point(3, 3), area=(1, 1, 39, 24), seed=10).sample(
            60.0, 0.02
        )
        multi = self._multi(trajectory, seed=11, include_h=True)
        results = self._run(multi, 12, stick=StickToFirstAp(), controller=ControllerRoaming())
        stick, controller = results["stick"], results["controller"]
        assert controller.mean_throughput_mbps > stick.mean_throughput_mbps * 0.95

    def test_tcp_throughput_below_udp(self):
        trajectory = WaypointWalkTrajectory(Point(5, 5), area=(1, 1, 39, 24), seed=13).sample(
            20.0, 0.02
        )
        multi = self._multi(trajectory, seed=14)
        result = self._run(multi, 15, default=DefaultClientRoaming())["default"]
        assert result.tcp_throughput_mbps() <= result.mean_throughput_mbps
