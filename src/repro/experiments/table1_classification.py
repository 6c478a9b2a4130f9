"""Table 1 — overall mobility classification accuracy.

The paper evaluates at >10 held-out locations across two office buildings,
subjecting the client to each mobility mode, and reports per-mode detection
rates (all above 92%).  This harness reproduces that protocol: per
location, one run per mode; per-second decisions scored against ground
truth outside a short grace window after each mode/heading transition (the
classifier's inherent trend-window delay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.classifier import ClassifierConfig
from repro.experiments.common import (
    ClassificationOutcome,
    ConfusionMatrix,
    classification_decisions,
    standard_client_positions,
)
from repro.mobility.environment import EnvironmentActivity
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.scenarios import (
    environmental_scenario,
    macro_scenario,
    micro_scenario,
    static_scenario,
)
from repro.util.geometry import Point
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs


@dataclass
class Table1Result:
    """Mode confusion matrix plus the macro heading split."""

    matrix: ConfusionMatrix
    heading_accuracy: float  # towards/away correctness among macro hits
    per_mode_accuracy: Dict[MobilityMode, float]

    def format_report(self) -> str:
        lines = ["Table 1 — mobility classification (rows = ground truth)"]
        lines.append(self.matrix.format_table())
        lines.append("")
        lines.append(
            f"macro heading (towards vs away) accuracy among detected macro: "
            f"{100.0 * self.heading_accuracy:.1f}%"
        )
        return "\n".join(lines)

    def minimum_accuracy(self) -> float:
        return min(self.per_mode_accuracy.values())


def run(
    n_locations: int = 6,
    duration_s: float = 120.0,
    grace_s: float = 6.5,
    seed: SeedLike = 10,
    classifier_config: ClassifierConfig = ClassifierConfig(),
) -> Table1Result:
    """Reproduce Table 1 over ``n_locations`` held-out client locations."""
    rng = ensure_rng(seed)
    ap = Point(0.0, 0.0)
    locations = standard_client_positions(n_locations, ap, seed=rng)

    matrix = ConfusionMatrix()
    heading_hits = 0
    heading_total = 0

    for location in locations:
        scenario_rngs = spawn_rngs(rng, 4)
        scenarios = [
            static_scenario(location),
            environmental_scenario(location, EnvironmentActivity.STRONG),
            micro_scenario(location, seed=scenario_rngs[0]),
            macro_scenario(
                location, anchor=ap, approach_retreat=True, seed=scenario_rngs[1]
            ),
        ]
        for scenario in scenarios:
            outcome: ClassificationOutcome = classification_decisions(
                scenario,
                ap,
                duration_s=duration_s,
                grace_s=grace_s,
                classifier_config=classifier_config,
                seed=rng,
            )
            matrix.add_outcome(outcome)
            if scenario.mode == MobilityMode.MACRO:
                for est, gt in outcome.decisions:
                    if (
                        est.mode == MobilityMode.MACRO
                        and gt.mode == MobilityMode.MACRO
                        and gt.heading != Heading.NONE
                    ):
                        heading_total += 1
                        if est.heading == gt.heading:
                            heading_hits += 1

    per_mode = {mode: matrix.accuracy(mode) for mode in MobilityMode}
    heading_accuracy = heading_hits / heading_total if heading_total else 0.0
    return Table1Result(
        matrix=matrix,
        heading_accuracy=heading_accuracy,
        per_mode_accuracy=per_mode,
    )
