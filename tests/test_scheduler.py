"""Tests for the mobility-aware multi-client scheduler (Section 9)."""

import pytest

from repro.core.hints import MobilityEstimate
from repro.mobility.modes import Heading, MobilityMode
from repro.rate.atheros import AtherosRateAdaptation
from repro.sim import SimulationEngine, TimeGrid
from repro.testing import synthetic_trace
from repro.wlan.scheduler import (
    MobilityAwareScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    SchedulingSession,
)


def _run(*sessions):
    """Co-run scheduling sessions on one engine; results in session order."""
    engine = SimulationEngine(TimeGrid(sessions[0].traces[0].times))
    for session in sessions:
        engine.add(session)
    results = engine.run()
    return [results[session.client] for session in sessions]


class TestRoundRobin:
    def test_cycles(self):
        scheduler = RoundRobinScheduler()
        picks = [scheduler.pick(0.0, [10.0, 20.0, 30.0]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]


class TestProportionalFair:
    def test_prefers_underserved_client(self):
        scheduler = ProportionalFairScheduler(alpha=0.5)
        # Serve client 0 heavily.
        for _ in range(10):
            scheduler.account(0, 100.0)
            scheduler.account(1, 0.0)
        # Equal instantaneous rates: the starved client must win.
        assert scheduler.pick(0.0, [50.0, 50.0]) == 1

    def test_prefers_better_channel_when_equally_served(self):
        scheduler = ProportionalFairScheduler()
        assert scheduler.pick(0.0, [10.0, 90.0]) == 1


class TestMobilityAware:
    def test_away_boost(self):
        scheduler = MobilityAwareScheduler()
        away = MobilityEstimate(
            0.0, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True
        )
        scheduler.update_hint(0, away)
        # Equal rates and service: the retreating client is served first —
        # its channel only degrades from here.
        assert scheduler.pick(0.0, [50.0, 50.0]) == 0

    def test_towards_deferred(self):
        scheduler = MobilityAwareScheduler()
        towards = MobilityEstimate(
            0.0, MobilityMode.MACRO, Heading.TOWARDS, tof_window_full=True
        )
        scheduler.update_hint(0, towards)
        # The approaching client waits: the same bits get cheaper shortly.
        assert scheduler.pick(0.0, [50.0, 50.0]) == 1

    def test_mode_sets_memory(self):
        scheduler = MobilityAwareScheduler()
        scheduler.update_hint(0, MobilityEstimate(0.0, MobilityMode.STATIC))
        scheduler.update_hint(1, MobilityEstimate(0.0, MobilityMode.MACRO,
                                                  Heading.AWAY, tof_window_full=True))
        assert scheduler._ewma(0).alpha < scheduler._ewma(1).alpha


class TestSimulateScheduling:
    def _traces(self):
        strong = synthetic_trace(snr_db=30.0, duration_s=10.0)
        weak = synthetic_trace(snr_db=10.0, duration_s=10.0)
        return [strong, weak]

    def test_all_clients_served(self):
        (result,) = _run(SchedulingSession(RoundRobinScheduler(), self._traces()))
        assert all(s > 0 for s in result.slots_served)
        assert all(t > 0 for t in result.per_client_mbps)

    def test_pf_serves_strong_link_more(self):
        """PF allocates more slots where the channel is better; totals are
        at least comparable to round-robin."""
        traces = self._traces()
        rr, pf = _run(
            SchedulingSession(RoundRobinScheduler(), traces, transmitter_seed=1, client="rr"),
            SchedulingSession(
                ProportionalFairScheduler(), traces, transmitter_seed=1, client="pf"
            ),
        )
        assert pf.per_client_mbps[0] > pf.per_client_mbps[1]
        assert pf.total_mbps > rr.total_mbps * 0.9

    def test_fairness_index_bounds(self):
        (result,) = _run(SchedulingSession(RoundRobinScheduler(), self._traces()))
        assert 0.0 < result.fairness_index <= 1.0

    def test_needs_two_clients(self):
        with pytest.raises(ValueError):
            SchedulingSession(RoundRobinScheduler(), [synthetic_trace()])

    @pytest.mark.parametrize("n_lists", [1, 3])
    def test_one_hint_list_per_client(self, n_lists):
        hints = [[MobilityEstimate(0.1, MobilityMode.STATIC)]] * n_lists
        with pytest.raises(ValueError, match=f"{n_lists} hints for 2 clients"):
            SchedulingSession(RoundRobinScheduler(), self._traces(), hints=hints)

    def test_one_rate_adapter_per_client(self):
        with pytest.raises(ValueError, match="1 adapters for 2 clients"):
            SchedulingSession(
                RoundRobinScheduler(), self._traces(), adapters=[AtherosRateAdaptation()]
            )

    def test_mobility_aware_front_loads_away_client(self):
        """A retreating client is served eagerly while its channel lasts."""
        degrading = synthetic_trace(snr_db=lambda t: 32.0 - 2.0 * t, duration_s=10.0,
                                    doppler_hz=23.0)
        static = synthetic_trace(snr_db=20.0, duration_s=10.0)
        hints = [
            [MobilityEstimate(0.1, MobilityMode.MACRO, Heading.AWAY,
                              tof_window_full=True)],
            [MobilityEstimate(0.1, MobilityMode.STATIC)],
        ]
        aware, plain = _run(
            SchedulingSession(
                MobilityAwareScheduler(), [degrading, static], hints=hints,
                transmitter_seed=2, client="aware",
            ),
            SchedulingSession(
                ProportionalFairScheduler(), [degrading, static], transmitter_seed=2,
                client="plain",
            ),
        )
        assert aware.per_client_mbps[0] > plain.per_client_mbps[0]
