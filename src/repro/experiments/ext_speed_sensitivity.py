"""Extension study — macro detection vs walking speed.

The ToF trend detector needs the round trip to advance by at least
``min_net_cycles`` (~1 cycle ≈ 3.4 m of one-way distance) within its
window, so there is a *minimum detectable radial speed*:

    v_min ≈ min_net · (c / clock) / 2 / (window − 1 seconds) ≈ 0.85 m/s

Below it, a genuinely walking client is reported as micro.  This study
sweeps walking speed and measures macro recall, mapping the operating
region of the paper's design (and explaining why slow, carried-AP
beamforming experiments cannot rely on macro hints — see EXPERIMENTS.md,
Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.common import bounded_walk_scenario, classification_decisions
from repro.mobility.modes import MobilityMode
from repro.util.geometry import Point
from repro.util.rng import SeedLike, ensure_rng

SPEEDS_MPS = (0.3, 0.6, 0.9, 1.2, 1.5, 2.0)


@dataclass
class SpeedSensitivityResult:
    """Macro recall per walking speed."""

    recall_by_speed: Dict[float, float]

    def format_report(self) -> str:
        lines = ["Extension — macro detection recall vs walking speed"]
        lines.append(f"{'speed':>8}{'macro recall':>15}")
        for speed, recall in sorted(self.recall_by_speed.items()):
            lines.append(f"{speed:>6.1f} m/s{100 * recall:>13.1f}%")
        return "\n".join(lines)

    def detection_threshold_mps(self, recall_floor: float = 0.5) -> float:
        """Slowest swept speed with recall above ``recall_floor``."""
        detected = [s for s, r in sorted(self.recall_by_speed.items()) if r >= recall_floor]
        return detected[0] if detected else float("inf")


def run(
    n_runs_per_speed: int = 2,
    duration_s: float = 60.0,
    seed: SeedLike = 42,
) -> SpeedSensitivityResult:
    """Sweep walking speed; measure the fraction of settled decisions that
    correctly say macro (radial walks, grace period excluded)."""
    rng = ensure_rng(seed)
    ap = Point(0.0, 0.0)
    recall: Dict[float, float] = {}
    for speed in SPEEDS_MPS:
        hits = 0
        total = 0
        for _ in range(n_runs_per_speed):
            start = Point(float(rng.uniform(15.0, 25.0)), float(rng.uniform(-5.0, 5.0)))
            scenario = bounded_walk_scenario(
                start,
                ap,
                min_distance_m=4.0,
                max_distance_m=34.0,
                leg_duration_s=duration_s / 3.0,
                speed=speed,
                seed=rng,
            )
            outcome = classification_decisions(
                scenario, ap, duration_s=duration_s, grace_s=7.0, seed=rng
            )
            for est, gt in outcome.decisions:
                if gt.mode == MobilityMode.MACRO:
                    total += 1
                    hits += est.mode == MobilityMode.MACRO
        recall[speed] = hits / total if total else 0.0
    return SpeedSensitivityResult(recall_by_speed=recall)
