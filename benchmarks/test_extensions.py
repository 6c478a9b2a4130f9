"""Section-9 extensions: ideas the paper discusses beyond the core system.

* channel-width selection under mobility — the paper's preliminary
  experiments "did not show any significant gains"; ours agree;
* 802.11r fast BSS transition — cuts the forced-handoff outage from
  ~200 ms to ~40 ms, making controller roaming friendlier to real-time
  traffic.
"""

import numpy as np
from conftest import print_report

from repro.channel.config import ChannelConfig
from repro.mac.aggregation import FrameTransmitter
from repro.mobility.scenarios import macro_scenario
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.simulator import simulate_rate_control
from repro.roaming.schemes import ControllerRoaming
from repro.roaming.simulator import RoamingSession
from repro.sim import SimulationEngine, TimeGrid
from repro.testing import synthetic_trace
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel


def test_extension_channel_width(run_once):
    """40 MHz vs 20 MHz while moving away: does narrow win?

    The paper conjectures a narrow channel "may be more robust ... when
    the client is moving away" but reports no significant gains.  Our
    model agrees: 20 MHz gains ~3 dB of SNR (narrower noise bandwidth) but
    halves the rate, and the trade nearly cancels across the SNR range a
    retreating client crosses.
    """

    def run():
        results = {}
        for label, bandwidth in (("40MHz", 40e6), ("20MHz", 20e6)):
            # Same retreat in SNR terms: the 20 MHz receiver sees +3 dB.
            offset = 3.0 if bandwidth == 20e6 else 0.0
            trace = synthetic_trace(
                snr_db=lambda t, o=offset: 30.0 - 0.8 * t + o,
                duration_s=25.0,
                doppler_hz=23.0,
            )
            transmitter = FrameTransmitter(seed=5, bandwidth_hz=bandwidth)
            adapter = AtherosRateAdaptation()
            adapter.bandwidth_hz = bandwidth  # informational
            run_result = simulate_rate_control(
                adapter, trace, transmitter=transmitter, perturbation_seed=321
            )
            results[label] = run_result.throughput_mbps
        return results

    results = run_once(run)
    wide, narrow = results["40MHz"], results["20MHz"]
    print_report(
        "Extension — channel width while moving away (paper: no significant gain)",
        f"40 MHz: {wide:6.1f} Mbps\n20 MHz: {narrow:6.1f} Mbps\n"
        f"narrow/wide ratio: {narrow / wide:.2f}",
    )
    # The negative result: neither width dominates by a large factor.
    assert narrow < wide  # wide still carries more bits overall...
    assert narrow > wide * 0.4  # ...but narrow is competitive at low SNR


def test_extension_80211r_fast_transition(run_once):
    """802.11r cuts the roam outage from ~200 ms to ~40 ms (Section 9).

    Same walk, same controller roaming decisions; only the handoff cost
    changes.  Fast transition strictly reduces outage time.
    """

    def run():
        floorplan = default_office_floorplan()
        scenario = macro_scenario(Point(4, 4), area=(2, 2, 38, 23), seed=41)
        trajectory = scenario.sample(60.0, 0.02)
        channel = MultiApChannel(
            floorplan, ChannelConfig(tx_power_dbm=8.0), seed=42
        )
        multi = channel.evaluate(trajectory, sample_interval_s=0.1, include_h=True)
        results = {}
        for label, outage_s in (("legacy (200 ms)", 0.200), ("802.11r (40 ms)", 0.040)):
            session = RoamingSession(
                multi,
                ControllerRoaming(),
                forced_handoff_outage_s=outage_s,
                seed=43,
            )
            engine = SimulationEngine(TimeGrid(multi.times))
            engine.add(session)
            run_result = engine.run()[session.client]
            outage_fraction = float(np.mean(run_result.goodput_mbps == 0.0))
            results[label] = (
                run_result.mean_throughput_mbps,
                len(run_result.handoffs),
                outage_fraction,
            )
        return results

    results = run_once(run)
    rows = "\n".join(
        f"{label:<18} thr={thr:6.1f} Mbps  handoffs={handoffs}  outage={100 * outage:.1f}%"
        for label, (thr, handoffs, outage) in results.items()
    )
    print_report("Extension — 802.11r fast BSS transition", rows)
    legacy = results["legacy (200 ms)"]
    fast = results["802.11r (40 ms)"]
    assert fast[2] <= legacy[2]  # less outage time
    assert fast[0] >= legacy[0] * 0.99  # and never worse throughput
