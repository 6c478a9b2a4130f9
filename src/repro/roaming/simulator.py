"""Roaming simulator: drives a scheme over a multi-AP walk.

Each decision step (the channel sampling cadence, default 100 ms):

* the serving AP's classifier digests CSI (every 500 ms) and ToF (20 ms)
  from the client's traffic;
* every AP's infrastructure-side ToF trend detector advances (used by the
  controller's neighbor reports);
* the scheme decides; scans and handoffs create outages during which no
  data flows ("scanning ... prevents the client from transmitting or
  receiving data", Section 3);
* goodput for the step is the expected MAC throughput of the serving AP's
  current SNR.

The step loop is owned by :class:`repro.sim.SimulationEngine`; this module
provides :class:`RoamingSession` mapping the bullets above onto the
engine's sense/classify/adapt/transmit phases.  Sensing, scans and
handoffs are the shared :class:`repro.roaming.walk.ClientWalk` model the
integrated stack runs too; the session hands it the accelerometer truth
and adds the goodput of each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.classifier import ClassifierConfig
from repro.phy.error import ErrorModel
from repro.phy.tof import ToFConfig
from repro.roaming.base import HandoffEvent, RoamingScheme
from repro.roaming.walk import ClientWalk
from repro.sim.engine import Session, StepClock, TimeGrid
from repro.telemetry.recorder import Recorder
from repro.util.rng import SeedLike, spawn_rngs
from repro.wlan.multilink import MultiApTraces
from repro.wlan.traffic import TcpModel


@dataclass
class RoamingRunResult:
    """Timeline and events of one roaming run."""

    times: np.ndarray
    goodput_mbps: np.ndarray
    ap_timeline: np.ndarray
    handoffs: List[HandoffEvent] = field(default_factory=list)
    n_scans: int = 0

    @property
    def mean_throughput_mbps(self) -> float:
        return float(np.mean(self.goodput_mbps))

    def tcp_throughput_mbps(self, tcp: Optional[TcpModel] = None) -> float:
        tcp = tcp or TcpModel()
        return tcp.mean_throughput_mbps(self.times, self.goodput_mbps)


class RoamingSession(Session):
    """One client walking a floorplan while a roaming scheme serves it.

    The public way to run ``scheme`` over the walk captured in ``multi``:
    add the session to a :class:`repro.sim.SimulationEngine` over
    ``TimeGrid(multi.times)``; ``run()[client]`` is the
    :class:`RoamingRunResult`.  Schemes compared on one walk co-run on
    one engine, each with its own scheme instance and ``client`` label.

    ``device_mobile_truth`` (bool per channel sample) is the accelerometer
    ground truth used by sensor-hint roaming.  Traces must carry CSI
    (``include_h``) for the classifier-driven controller scheme; without
    CSI the classifier simply never produces estimates.

    Phase mapping: ``sense`` feeds the ToF/CSI streams to the serving AP's
    classifier and the per-AP trend detectors; ``adapt`` runs the scheme's
    decision and performs scans/handoffs; ``transmit`` records the step's
    goodput under the current outage state.
    """

    def __init__(
        self,
        multi: MultiApTraces,
        scheme: RoamingScheme,
        device_mobile_truth: Optional[np.ndarray] = None,
        error_model: ErrorModel = ErrorModel(),
        mac_efficiency: float = 0.65,
        scan_outage_s: float = 0.150,
        handoff_outage_s: float = 0.250,
        forced_handoff_outage_s: float = 0.200,
        classifier_config: ClassifierConfig = ClassifierConfig(),
        tof_config: ToFConfig = ToFConfig(),
        rssi_noise_db: float = 1.0,
        seed: SeedLike = None,
        client: str = "client",
    ) -> None:
        self.client = client
        self.scheme = scheme
        self._error_model = error_model
        self._mac_efficiency = mac_efficiency
        rssi_rng, measurement_rng, *tof_seeds = spawn_rngs(seed, 2 + multi.floorplan.n_aps)
        self._sim = ClientWalk(
            multi,
            classifier_config,
            tof_config,
            rssi_rng,
            measurement_rng,
            tof_seeds,
            rssi_noise_db=rssi_noise_db,
            scan_outage_s=scan_outage_s,
            handoff_outage_s=handoff_outage_s,
            forced_handoff_outage_s=forced_handoff_outage_s,
            device_mobile_truth=device_mobile_truth,
        )
        self._goodput = np.empty(len(multi.times))

    def bind_recorder(self, recorder: Recorder) -> None:
        super().bind_recorder(recorder)
        self._sim.bind_recorder(recorder, self.client)

    def start(self, grid: TimeGrid) -> None:
        self._sim.start(grid)
        self.scheme.reset()

    def sense(self, clock: StepClock) -> None:
        self._sim.move_to(clock)
        self._sim.advance(clock.start_s)

    def adapt(self, clock: StepClock) -> None:
        self._sim.roam(self.scheme)

    def transmit(self, clock: StepClock) -> None:
        self._goodput[clock.index] = self.goodput_now()

    def goodput_now(self) -> float:
        """Expected MAC goodput of the serving AP's current SNR (0 in an outage)."""
        sim = self._sim
        if sim.now_s < sim.outage_until:
            return 0.0
        trace = sim.multi.traces[sim.current_ap]
        snr = float(trace.snr_db[sim.step_index])
        condition = float(trace.mimo_condition_db[sim.step_index])
        return self._error_model.expected_goodput_mbps(
            snr, mimo_condition_db=condition
        ) * self._mac_efficiency

    def finish(self) -> RoamingRunResult:
        sim = self._sim
        if self.recorder.enabled:
            self.recorder.gauge("roaming.handoffs", float(len(sim.handoffs)), client=self.client)
            self.recorder.gauge("roaming.scans", float(sim.n_scans), client=self.client)
            self.recorder.gauge(
                "roaming.mean_goodput_mbps", float(np.mean(self._goodput)), client=self.client
            )
        return RoamingRunResult(
            times=np.asarray(sim.multi.times, dtype=float),
            goodput_mbps=self._goodput,
            ap_timeline=sim.ap_timeline,
            handoffs=sim.handoffs,
            n_scans=sim.n_scans,
        )
