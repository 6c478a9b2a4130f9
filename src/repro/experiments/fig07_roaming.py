"""Fig. 7 — mobility-aware client roaming.

(a) The motivating measurement: per mobility mode, the throughput gain of
    always being on the *strongest* AP vs sticking with the initial AP.
    Only clients moving away from their AP gain meaningfully.
(b) The protocol comparison: controller-based mobility-aware roaming vs
    the sensor-hint client scheme of [1] vs the default client scheme,
    on natural walks across a 6-AP floor with UDP downlink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.channel.config import ChannelConfig
from repro.mobility.environment import EnvironmentActivity, EnvironmentProcess
from repro.mobility.modes import MobilityMode
from repro.mobility.scenarios import (
    MobilityScenario,
    environmental_scenario,
    macro_scenario,
    micro_scenario,
    static_scenario,
)
from repro.mobility.trajectory import ApproachRetreatTrajectory, StaticTrajectory
from repro.phy.error import ErrorModel
from repro.roaming.schemes import (
    ControllerRoaming,
    DefaultClientRoaming,
    SensorHintRoaming,
)
from repro.roaming.simulator import RoamingSession
from repro.sim import SimulationEngine, TimeGrid
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs
from repro.util.stats import EmpiricalCDF, format_cdf_rows
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel

#: Roaming experiments use lower transmit power than the link studies:
#: enterprise deployments run APs at reduced power so that cells hand over
#: (and the paper's office has clear per-AP coverage zones).
ROAMING_CHANNEL = ChannelConfig(tx_power_dbm=8.0, shadowing_sigma_db=3.0)

MAC_EFFICIENCY = 0.65


@dataclass
class Fig7Result:
    """Both panels of Fig. 7."""

    gain_cdfs: Dict[str, EmpiricalCDF]  # panel (a): per-mode oracle gain (%)
    scheme_cdfs: Dict[str, EmpiricalCDF]  # panel (b): per-scheme throughput

    def format_report(self) -> str:
        lines = [
            format_cdf_rows(
                self.gain_cdfs,
                "Fig. 7(a) — % throughput gain: strongest AP vs sticking, per mode",
            ),
            "",
            format_cdf_rows(
                self.scheme_cdfs, "Fig. 7(b) — UDP throughput (Mbps) per roaming scheme"
            ),
        ]
        return "\n".join(lines)

    def median_gain(self, mode: str) -> float:
        return self.gain_cdfs[mode].median()

    def median_throughput(self, scheme: str) -> float:
        return self.scheme_cdfs[scheme].median()


def _expected_throughput(snr_db: np.ndarray, error_model: ErrorModel) -> np.ndarray:
    return np.asarray(
        [error_model.expected_goodput_mbps(float(s)) * MAC_EFFICIENCY for s in snr_db]
    )


def run_panel_a(
    n_locations: int = 5,
    duration_s: float = 45.0,
    seed: SeedLike = 70,
) -> Dict[str, EmpiricalCDF]:
    """Oracle-gain measurement per mobility mode (panel a).

    Per location, the client first associates with the strongest AP at its
    position; each mobility mode is then a separate experiment scored as
    the per-sample % gain of the instantaneously strongest AP over that
    serving AP.  Towards/away are directed walks relative to the serving
    AP, as in the paper.
    """
    rng = ensure_rng(seed)
    floorplan = default_office_floorplan()
    error_model = ErrorModel()
    cdfs: Dict[str, EmpiricalCDF] = {}

    for _ in range(n_locations):
        # Central locations: outward walks then stay on the floor and pass
        # other APs (a corner start would walk out of the building).
        start = floorplan.random_client_position(rng, margin=8.0)
        srngs = spawn_rngs(rng, 3)
        channel_seed = int(rng.integers(0, 2**31))

        # Association probe: the serving AP is the strongest at the start
        # position under this location's shadowing realisation.
        probe_channel = MultiApChannel(floorplan, ROAMING_CHANNEL, seed=channel_seed)
        probe_trajectory = StaticTrajectory(start).sample(1.0, 0.2)
        probe = probe_channel.evaluate(probe_trajectory, sample_interval_s=0.2)
        serving = probe.strongest_ap(0)
        anchor = floorplan.ap_positions[serving]

        def directed_walk(towards: bool, walk_seed) -> MobilityScenario:
            return MobilityScenario(
                name="macro",
                mode=MobilityMode.MACRO,
                trajectory=ApproachRetreatTrajectory(
                    anchor=anchor,
                    start=start,
                    min_distance_m=1.5,
                    max_distance_m=16.0,
                    leg_duration_s=duration_s,  # a single directed leg
                    start_towards=towards,
                    seed=walk_seed,
                ),
                environment=EnvironmentProcess.from_activity(EnvironmentActivity.NONE),
            )

        from repro.util.geometry import distance as point_distance

        start_distance = max(point_distance(start, anchor), 2.0)
        # Directed walks must not bounce at the distance bounds and reverse
        # direction: cap each at its one-way travel time (speed ~1.2 m/s).
        towards_duration = max(5.0, min(duration_s, (start_distance - 1.5) / 1.2))
        away_duration = max(5.0, min(duration_s, (16.0 - start_distance) / 1.2))
        scenarios = [
            ("static", static_scenario(start), duration_s),
            (
                "environmental",
                environmental_scenario(start, EnvironmentActivity.STRONG),
                duration_s,
            ),
            ("micro", micro_scenario(start, seed=srngs[0]), duration_s),
            ("macro-towards", directed_walk(True, srngs[1]), towards_duration),
            ("macro-away", directed_walk(False, srngs[2]), away_duration),
        ]
        for name, scenario, run_duration in scenarios:
            trajectory = scenario.sample(run_duration, 0.05)
            # Fresh channel with the same seed: identical shadowing field
            # per location, so the serving AP choice stays consistent.
            channel = MultiApChannel(floorplan, ROAMING_CHANNEL, seed=channel_seed)
            multi = channel.evaluate(trajectory, sample_interval_s=0.2, include_h=False)
            snr = multi.snr_matrix()
            stick = _expected_throughput(snr[:, serving], error_model)
            best = _expected_throughput(np.max(snr, axis=1), error_model)
            per_sample_gain = 100.0 * (best - stick) / np.maximum(stick, 1e-6)
            cdfs.setdefault(name, EmpiricalCDF()).extend(per_sample_gain)
    return cdfs


def run_panel_b(
    n_walks: int = 8,
    duration_s: float = 60.0,
    seed: SeedLike = 71,
) -> Dict[str, EmpiricalCDF]:
    """Scheme shoot-out on natural walks (panel b)."""
    rng = ensure_rng(seed)
    floorplan = default_office_floorplan()
    cdfs: Dict[str, EmpiricalCDF] = {
        "default": EmpiricalCDF(),
        "sensor-hint": EmpiricalCDF(),
        "controller": EmpiricalCDF(),
    }
    for walk in range(n_walks):
        start = floorplan.random_client_position(rng, margin=3.0)
        scenario = macro_scenario(
            start, area=(2.0, 2.0, 38.0, 23.0), seed=rng
        )
        trajectory = scenario.sample(duration_s, 0.02)
        channel = MultiApChannel(floorplan, ROAMING_CHANNEL, seed=rng)
        multi = channel.evaluate(trajectory, sample_interval_s=0.1, include_h=True)
        mobile = np.ones(len(multi.times), dtype=bool)
        run_seed = rng.integers(0, 2**31)
        # The three schemes walk the same client trace side by side.
        engine = SimulationEngine(TimeGrid(multi.times))
        for scheme_name, scheme in (
            ("default", DefaultClientRoaming()),
            ("sensor-hint", SensorHintRoaming()),
            ("controller", ControllerRoaming()),
        ):
            engine.add(
                RoamingSession(
                    multi,
                    scheme,
                    device_mobile_truth=mobile,
                    mac_efficiency=MAC_EFFICIENCY,
                    seed=run_seed,
                    client=scheme_name,
                )
            )
        for scheme_name, result in engine.run().items():
            cdfs[scheme_name].add(result.mean_throughput_mbps)
    return cdfs


def run(
    n_locations: int = 5,
    n_walks: int = 8,
    duration_s: float = 45.0,
    seed: SeedLike = 7,
) -> Fig7Result:
    """Generate both panels."""
    rng = ensure_rng(seed)
    gains = run_panel_a(n_locations=n_locations, duration_s=duration_s, seed=rng)
    schemes = run_panel_b(n_walks=n_walks, duration_s=max(duration_s, 60.0), seed=rng)
    return Fig7Result(gain_cdfs=gains, scheme_cdfs=schemes)
