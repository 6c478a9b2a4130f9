"""Fig. 6 — sensitivity of the classifier to its two main knobs.

(a) CSI sampling period: short periods under-sample channel change (device
    mobility has not decorrelated the CSI yet), long periods delay
    decisions; the paper settles on 500 ms (~96% accuracy).
(b) ToF trend window: longer windows make the micro/macro split more
    reliable (fewer noise-induced false trends) but delay macro detection;
    the paper settles on 4 s (~98% accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.classifier import ClassifierConfig
from repro.core.tof_trend import ToFTrendConfig
from repro.experiments.common import classification_decisions, standard_client_positions
from repro.mobility.modes import MobilityMode
from repro.mobility.scenarios import (
    macro_scenario,
    micro_scenario,
    static_scenario,
)
from repro.util.geometry import Point
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs

#: CSI sampling periods swept in panel (a), seconds.
CSI_PERIODS_S = (0.05, 0.1, 0.25, 0.5, 1.0)
#: ToF trend windows swept in panel (b), in 1-second median periods.
TOF_WINDOWS = (2, 3, 4, 5, 6, 8)


@dataclass
class Fig6Result:
    """Accuracy and false-positive rate for both sweeps."""

    #: period -> (stationary-vs-device accuracy, false positive rate)
    csi_sweep: Dict[float, Tuple[float, float]]
    #: window -> (macro detection accuracy, micro->macro false positives)
    tof_sweep: Dict[int, Tuple[float, float]]

    def format_report(self) -> str:
        lines = ["Fig. 6(a) — CSI-based device-mobility detection vs sampling period"]
        lines.append(f"{'period':>10}{'accuracy':>12}{'false pos':>12}")
        for period, (acc, fp) in sorted(self.csi_sweep.items()):
            lines.append(f"{int(period * 1000):>8}ms{100 * acc:>11.1f}%{100 * fp:>11.1f}%")
        lines.append("")
        lines.append("Fig. 6(b) — micro/macro split vs ToF trend window")
        lines.append(f"{'window':>10}{'accuracy':>12}{'false pos':>12}")
        for window, (acc, fp) in sorted(self.tof_sweep.items()):
            lines.append(f"{window:>9}s{100 * acc:>11.1f}%{100 * fp:>11.1f}%")
        return "\n".join(lines)


def run(
    n_locations: int = 3,
    duration_s: float = 90.0,
    seed: SeedLike = 6,
) -> Fig6Result:
    """Run both sensitivity sweeps."""
    rng = ensure_rng(seed)
    ap = Point(0.0, 0.0)
    locations = standard_client_positions(n_locations, ap, max_distance_m=22.0, seed=rng)

    # ---------------------------------------------- panel (a): CSI period
    csi_sweep: Dict[float, Tuple[float, float]] = {}
    for period in CSI_PERIODS_S:
        config = ClassifierConfig(csi_sampling_period_s=period)
        device_hits = device_total = 0
        false_pos = stationary_total = 0
        for location in locations:
            srngs = spawn_rngs(rng, 2)
            for scenario in (
                static_scenario(location),
                micro_scenario(location, seed=srngs[0]),
                macro_scenario(location, anchor=ap, approach_retreat=True, seed=srngs[1]),
            ):
                outcome = classification_decisions(
                    scenario,
                    ap,
                    duration_s=duration_s,
                    grace_s=5.0,
                    classifier_config=config,
                    seed=rng,
                )
                for est, gt in outcome.decisions:
                    if gt.mode.is_device_mobility:
                        device_total += 1
                        if est.mode.is_device_mobility:
                            device_hits += 1
                    else:
                        stationary_total += 1
                        if est.mode.is_device_mobility:
                            false_pos += 1
        accuracy = device_hits / device_total if device_total else 0.0
        fp_rate = false_pos / stationary_total if stationary_total else 0.0
        csi_sweep[period] = (accuracy, fp_rate)

    # ---------------------------------------------- panel (b): ToF window
    tof_sweep: Dict[int, Tuple[float, float]] = {}
    for window in TOF_WINDOWS:
        config = ClassifierConfig(tof=ToFTrendConfig(window_periods=window))
        macro_hits = macro_total = 0
        micro_fp = micro_total = 0
        for location in locations:
            srngs = spawn_rngs(rng, 2)
            grace = max(5.0, window + 2.0)
            for scenario in (
                micro_scenario(location, seed=srngs[0]),
                macro_scenario(location, anchor=ap, approach_retreat=True, seed=srngs[1]),
            ):
                outcome = classification_decisions(
                    scenario,
                    ap,
                    duration_s=duration_s,
                    grace_s=grace,
                    classifier_config=config,
                    seed=rng,
                )
                for est, gt in outcome.decisions:
                    if gt.mode == MobilityMode.MACRO:
                        macro_total += 1
                        if est.mode == MobilityMode.MACRO:
                            macro_hits += 1
                    elif gt.mode == MobilityMode.MICRO:
                        micro_total += 1
                        if est.mode == MobilityMode.MACRO:
                            micro_fp += 1
        accuracy = macro_hits / macro_total if macro_total else 0.0
        fp_rate = micro_fp / micro_total if micro_total else 0.0
        tof_sweep[window] = (accuracy, fp_rate)

    return Fig6Result(csi_sweep=csi_sweep, tof_sweep=tof_sweep)
