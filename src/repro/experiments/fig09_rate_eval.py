"""Fig. 9 — mobility-aware rate adaptation evaluation.

(a) Per-link throughput of stock Atheros RA vs the motion-aware variant,
    with the client under device mobility (paper: ~23% median gain).
(b) Trace-based shoot-out on random walks: Atheros RA, motion-aware
    Atheros RA, RapidSample (sensor hints), SoftRate, ESNR.  Expected
    ordering: motion-aware beats RapidSample, roughly matches SoftRate,
    and reaches ~90% of ESNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.channel.config import ChannelConfig
from repro.core.hints import MobilityEstimate
from repro.experiments.common import sense_and_classify, standard_client_positions
from repro.mac.aggregation import FrameTransmitter
from repro.mobility.environment import EnvironmentActivity, EnvironmentProcess
from repro.mobility.modes import MobilityMode
from repro.mobility.scenarios import MobilityScenario, micro_scenario
from repro.mobility.trajectory import ApproachRetreatTrajectory
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.esnr import ESNRRate
from repro.rate.mobility_aware import MobilityAwareAtherosRA
from repro.rate.rapidsample import HintAwareRateControl
from repro.rate.simulator import simulate_rate_control
from repro.rate.softrate import SoftRate
from repro.util.geometry import Point
from repro.util.rng import SeedLike, ensure_rng
from repro.util.stats import EmpiricalCDF, format_cdf_rows


@dataclass
class Fig9Result:
    """Both panels."""

    per_link: List[Tuple[float, float]]  # (atheros, motion-aware) Mbps
    scheme_throughputs: Dict[str, EmpiricalCDF]

    @property
    def median_gain_percent(self) -> float:
        gains = [
            100.0 * (aware - stock) / max(stock, 1e-6) for stock, aware in self.per_link
        ]
        return float(np.median(gains))

    def scheme_mean(self, name: str) -> float:
        return self.scheme_throughputs[name].mean()

    def format_report(self) -> str:
        lines = ["Fig. 9(a) — per-link throughput (Mbps): Atheros vs motion-aware"]
        lines.append(f"{'link':>6}{'atheros':>12}{'motion-aware':>14}{'gain':>9}")
        for i, (stock, aware) in enumerate(self.per_link):
            gain = 100.0 * (aware - stock) / max(stock, 1e-6)
            lines.append(f"{i:>6}{stock:>12.1f}{aware:>14.1f}{gain:>8.1f}%")
        lines.append(f"median gain: {self.median_gain_percent:.1f}%")
        lines.append("")
        lines.append(
            format_cdf_rows(
                self.scheme_throughputs,
                "Fig. 9(b) — trace-based throughput (Mbps) per rate-control scheme",
            )
        )
        return "\n".join(lines)


def _walk_scenario(start: Point, ap: Point, rng) -> "MobilityScenario":
    """An approach/retreat walk confined to realistic office distances.

    The client never gets closer than ~10 m to the AP (other rooms, desks),
    so the link spans the SNR range where rate choice actually matters.
    """
    trajectory = ApproachRetreatTrajectory(
        anchor=ap,
        start=start,
        min_distance_m=10.0,
        max_distance_m=38.0,
        leg_duration_s=15.0,
        seed=rng,
    )
    return MobilityScenario(
        name="macro",
        mode=MobilityMode.MACRO,
        trajectory=trajectory,
        environment=EnvironmentProcess.from_activity(EnvironmentActivity.NONE),
    )


def _device_mobility_scenario(location: Point, ap: Point, index: int, rng):
    """Alternate micro and macro device mobility across links."""
    if index % 2 == 0:
        return _walk_scenario(location, ap, rng)
    return micro_scenario(location, seed=rng)


def run_panel_a(
    n_links: int = 8,
    duration_s: float = 45.0,
    seed: SeedLike = 90,
    channel_config: ChannelConfig = ChannelConfig(),
) -> List[Tuple[float, float]]:
    """Stock vs motion-aware Atheros RA on per-link device-mobility runs."""
    rng = ensure_rng(seed)
    ap = Point(0.0, 0.0)
    locations = standard_client_positions(
        n_links, ap, min_distance_m=12.0, max_distance_m=30.0, seed=rng
    )
    results: List[Tuple[float, float]] = []
    for i, location in enumerate(locations):
        scenario = _device_mobility_scenario(location, ap, i, rng)
        sensed = sense_and_classify(
            scenario, ap, duration_s=duration_s, channel_config=channel_config, seed=rng
        )
        tx_seed = int(rng.integers(0, 2**31))
        stock = simulate_rate_control(
            AtherosRateAdaptation(),
            sensed.trace,
            transmitter=FrameTransmitter(seed=tx_seed),
        )
        aware = simulate_rate_control(
            MobilityAwareAtherosRA(),
            sensed.trace,
            transmitter=FrameTransmitter(seed=tx_seed),
            hints=sensed.hints,
        )
        results.append((stock.throughput_mbps, aware.throughput_mbps))
    return results


def _ground_truth_hints(sensed) -> List[MobilityEstimate]:
    """Binary accelerometer hints for RapidSample's HintAwareRateControl."""
    hints = []
    for estimate in sensed.hints:
        # The accelerometer knows device mobility perfectly but nothing else;
        # reuse hint timestamps, replacing content with the ground truth.
        index = min(
            int(estimate.time_s / sensed.trajectory.dt), len(sensed.truths) - 1
        )
        truth = sensed.truths[index]
        mode = MobilityMode.MICRO if truth.mode.is_device_mobility else MobilityMode.STATIC
        hints.append(MobilityEstimate(time_s=estimate.time_s, mode=mode))
    return hints


def run_panel_b(
    n_walks: int = 6,
    duration_s: float = 45.0,
    seed: SeedLike = 91,
    channel_config: ChannelConfig = ChannelConfig(),
) -> Dict[str, EmpiricalCDF]:
    """Five-scheme comparison on identical walk traces."""
    rng = ensure_rng(seed)
    ap = Point(0.0, 0.0)
    cdfs: Dict[str, EmpiricalCDF] = {
        name: EmpiricalCDF()
        for name in ("atheros", "motion-aware", "rapidsample", "softrate", "esnr")
    }
    for walk in range(n_walks):
        start = Point(float(rng.uniform(14.0, 30.0)), float(rng.uniform(-10.0, 10.0)))
        scenario = _walk_scenario(start, ap, rng)
        sensed = sense_and_classify(
            scenario, ap, duration_s=duration_s, channel_config=channel_config, seed=rng
        )
        accel_hints = _ground_truth_hints(sensed)
        tx_seed = int(rng.integers(0, 2**31))
        schemes = {
            "atheros": (AtherosRateAdaptation(), ()),
            "motion-aware": (MobilityAwareAtherosRA(), sensed.hints),
            "rapidsample": (HintAwareRateControl(), accel_hints),
            "softrate": (SoftRate(seed=walk), ()),
            "esnr": (ESNRRate(seed=walk), ()),
        }
        for name, (adapter, hints) in schemes.items():
            run_result = simulate_rate_control(
                adapter,
                sensed.trace,
                transmitter=FrameTransmitter(seed=tx_seed),
                hints=hints,
                esnr_feedback_period_s=0.050,
            )
            cdfs[name].add(run_result.throughput_mbps)
    return cdfs


def run(
    n_links: int = 8,
    n_walks: int = 6,
    duration_s: float = 45.0,
    seed: SeedLike = 9,
) -> Fig9Result:
    rng = ensure_rng(seed)
    per_link = run_panel_a(n_links=n_links, duration_s=duration_s, seed=rng)
    schemes = run_panel_b(n_walks=n_walks, duration_s=duration_s, seed=rng)
    return Fig9Result(per_link=per_link, scheme_throughputs=schemes)
