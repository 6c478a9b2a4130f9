#!/usr/bin/env python
"""Roaming shoot-out on a 6-AP office floor.

A client walks naturally across the floorplan of Fig. 13(a); four roaming
policies replay the identical walk: stick-to-first, the default client
scheme, the sensor-hint client scheme of [1], and the paper's
controller-based mobility-aware roaming.

Run:  python examples/roaming_demo.py
"""

import numpy as np

from repro import ChannelConfig, Point
from repro.mobility.scenarios import macro_scenario
from repro.roaming import (
    ControllerRoaming,
    DefaultClientRoaming,
    RoamingSession,
    SensorHintRoaming,
    StickToFirstAp,
)
from repro.sim import SimulationEngine, TimeGrid
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel

WALK_SECONDS = 90.0
CHANNEL = ChannelConfig(tx_power_dbm=8.0, shadowing_sigma_db=4.5)


def main() -> None:
    floorplan = default_office_floorplan()
    scenario = macro_scenario(Point(4.0, 4.0), area=(2.0, 2.0, 38.0, 23.0), seed=11)
    trajectory = scenario.sample(WALK_SECONDS, 0.02)

    print(f"Floorplan: {floorplan.n_aps} APs over {floorplan.bounds[2]:.0f} x "
          f"{floorplan.bounds[3]:.0f} m; walk of {WALK_SECONDS:.0f} s")

    channel = MultiApChannel(floorplan, CHANNEL, seed=7)
    multi = channel.evaluate(trajectory, sample_interval_s=0.1, include_h=True)
    device_mobile = np.ones(len(multi.times), dtype=bool)  # accelerometer truth

    # Every scheme replays the identical walk as its own session on one
    # engine, labelled by the scheme's name.
    engine = SimulationEngine(TimeGrid(multi.times))
    for scheme in (
        StickToFirstAp(),
        DefaultClientRoaming(),
        SensorHintRoaming(),
        ControllerRoaming(),
    ):
        engine.add(
            RoamingSession(
                multi, scheme, device_mobile_truth=device_mobile, seed=3, client=scheme.name
            )
        )

    print(f"\n{'scheme':<14}{'UDP Mbps':>10}{'TCP Mbps':>10}{'handoffs':>10}{'scans':>8}")
    for name, result in engine.run().items():
        print(
            f"{name:<14}{result.mean_throughput_mbps:>10.1f}"
            f"{result.tcp_throughput_mbps():>10.1f}"
            f"{len(result.handoffs):>10}{result.n_scans:>8}"
        )

    print(
        "\nThe controller roams the client proactively (no client scans) only"
        "\nwhen it is walking away from its AP towards a better one."
    )


if __name__ == "__main__":
    main()
