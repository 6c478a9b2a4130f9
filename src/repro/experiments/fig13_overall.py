"""Fig. 13 — overall protocol performance.

The end-to-end test: a client walks naturally through a 6-AP office floor
with saturated UDP downlink.  One arm runs the full mobility-aware stack
(controller roaming + motion-aware Atheros RA + adaptive aggregation +
adaptive TxBF feedback, all driven by the serving AP's classifier); the
other runs the mobility-oblivious defaults.  The paper reports the
mobility-aware stack winning every one of its tests, with ~100% overall
improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.channel.config import ChannelConfig
from repro.mobility.scenarios import macro_scenario
from repro.sim import SimulationEngine, TimeGrid
from repro.util.rng import SeedLike, ensure_rng
from repro.util.stats import EmpiricalCDF, format_cdf_rows
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel
from repro.wlan.stack import StackSession, default_stack, mobility_aware_stack

#: Walking-tour channel: enterprise power control plus NLoS-heavy fabric
#: so that both roaming and beamforming adaptation matter.
OVERALL_CHANNEL = ChannelConfig(
    tx_power_dbm=8.0, rician_k_db=-2.0, n_paths=16, shadowing_sigma_db=5.0
)


@dataclass
class Fig13Result:
    """End-to-end throughput CDFs and per-test pairs."""

    cdfs: Dict[str, EmpiricalCDF]
    per_test: List[Dict[str, float]]

    def format_report(self) -> str:
        lines = [
            format_cdf_rows(
                self.cdfs, "Fig. 13(b) — end-to-end UDP throughput (Mbps) per stack"
            ),
            "",
            f"{'test':>5}{'default':>10}{'aware':>10}{'gain':>9}",
        ]
        for i, row in enumerate(self.per_test):
            gain = 100.0 * (row["aware"] - row["default"]) / max(row["default"], 1e-6)
            lines.append(f"{i:>5}{row['default']:>10.1f}{row['aware']:>10.1f}{gain:>8.1f}%")
        lines.append(f"median gain: {self.median_gain_percent():.1f}%")
        wins = sum(1 for row in self.per_test if row["aware"] > row["default"])
        lines.append(f"mobility-aware wins {wins}/{len(self.per_test)} tests")
        return "\n".join(lines)

    def format_plot(self) -> str:
        from repro.util.textplot import render_cdf

        return render_cdf(
            self.cdfs, title="Fig. 13(b) — CDF of end-to-end throughput (Mbps)"
        )

    def median_gain_percent(self) -> float:
        gains = [
            100.0 * (row["aware"] - row["default"]) / max(row["default"], 1e-6)
            for row in self.per_test
        ]
        return float(np.median(gains))

    def win_fraction(self) -> float:
        wins = sum(1 for row in self.per_test if row["aware"] > row["default"])
        return wins / max(len(self.per_test), 1)


def run(
    n_tests: int = 9,
    duration_s: float = 60.0,
    seed: SeedLike = 13,
) -> Fig13Result:
    """Run the paired walking tests."""
    rng = ensure_rng(seed)
    floorplan = default_office_floorplan()
    cdfs = {"default": EmpiricalCDF(), "mobility-aware": EmpiricalCDF()}
    per_test: List[Dict[str, float]] = []
    for _ in range(n_tests):
        start = floorplan.random_client_position(rng, margin=3.0)
        scenario = macro_scenario(start, area=(2.0, 2.0, 38.0, 23.0), seed=rng)
        trajectory = scenario.sample(duration_s, 0.02)
        channel = MultiApChannel(floorplan, OVERALL_CHANNEL, seed=rng)
        multi = channel.evaluate(trajectory, sample_interval_s=0.1, include_h=True)
        run_seed = int(rng.integers(0, 2**31))
        # Both arms walk the same client trace side by side.
        engine = SimulationEngine(TimeGrid(multi.times))
        engine.add(StackSession(multi, mobility_aware_stack(), seed=run_seed, client="aware"))
        engine.add(StackSession(multi, default_stack(), seed=run_seed, client="default"))
        results = engine.run()
        aware, default = results["aware"], results["default"]
        cdfs["mobility-aware"].add(aware.mean_throughput_mbps)
        cdfs["default"].add(default.mean_throughput_mbps)
        per_test.append(
            {"aware": aware.mean_throughput_mbps, "default": default.mean_throughput_mbps}
        )
    return Fig13Result(cdfs=cdfs, per_test=per_test)
