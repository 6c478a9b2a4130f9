"""Section-9 extension — mobility-aware multi-client scheduling."""

from conftest import print_report

from repro.core.hints import MobilityEstimate
from repro.mobility.modes import Heading, MobilityMode
from repro.sim import SimulationEngine, TimeGrid
from repro.testing import synthetic_trace
from repro.wlan.scheduler import (
    MobilityAwareScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    SchedulingSession,
)


def test_scheduler_comparison(run_once):
    """Three clients at one AP: one static, one approaching, one retreating.

    Mobility hints let the scheduler front-load the *retreating* client —
    its channel only degrades, so bits are cheapest now — while deferring
    the approaching client whose bits get cheaper by the second.  The
    retreating client's throughput rises substantially at a small total
    cost, with fairness maintained.
    """

    def run():
        static = synthetic_trace(snr_db=22.0, duration_s=20.0)
        approaching = synthetic_trace(
            snr_db=lambda t: 10.0 + 1.2 * t, duration_s=20.0, doppler_hz=23.0
        )
        retreating = synthetic_trace(
            snr_db=lambda t: 34.0 - 1.2 * t, duration_s=20.0, doppler_hz=23.0
        )
        traces = [static, approaching, retreating]
        hints = [
            [MobilityEstimate(0.1, MobilityMode.STATIC)],
            [
                MobilityEstimate(
                    0.1, MobilityMode.MACRO, Heading.TOWARDS, tof_window_full=True
                )
            ],
            [
                MobilityEstimate(
                    0.1, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True
                )
            ],
        ]
        results = {}
        for scheduler, use_hints in (
            (RoundRobinScheduler(), None),
            (ProportionalFairScheduler(), None),
            (MobilityAwareScheduler(), hints),
        ):
            session = SchedulingSession(
                scheduler, traces, hints=use_hints, transmitter_seed=3
            )
            engine = SimulationEngine(TimeGrid(traces[0].times))
            engine.add(session)
            results[scheduler.name] = engine.run()[session.client]
        return results

    results = run_once(run)
    rows = []
    for name, outcome in results.items():
        per_client = "  ".join(f"{t:6.1f}" for t in outcome.per_client_mbps)
        rows.append(
            f"{name:<18} total={outcome.total_mbps:6.1f} Mbps  "
            f"fairness={outcome.fairness_index:.3f}  per-client=[{per_client}]"
        )
    print_report("Extension — mobility-aware AP scheduling (3 clients)", "\n".join(rows))

    rr = results["round-robin"]
    pf = results["proportional-fair"]
    aware = results["mobility-aware"]
    # The headline: the retreating client (index 2) banks its good channel.
    assert aware.per_client_mbps[2] > pf.per_client_mbps[2] * 1.1
    # At a modest total cost and without starving anyone.
    assert aware.total_mbps >= pf.total_mbps * 0.90
    assert pf.total_mbps >= rr.total_mbps * 0.90
    assert aware.fairness_index > 0.5
