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
engine's sense/classify/adapt/transmit phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.classifier import ClassifierConfig, MobilityClassifier
from repro.core.hints import MobilityEstimate
from repro.phy.error import ErrorModel
from repro.phy.ranging import ToFRangeEstimator
from repro.phy.tof import ToFConfig, ToFSampler
from repro.roaming.base import (
    HandoffEvent,
    NeighborObservation,
    NeighborToF,
    RoamingContext,
    RoamingScheme,
)
from repro.sim.engine import Session, StepClock, TimeGrid
from repro.telemetry.recorder import NULL_RECORDER, Recorder
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs
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


class _SimContext(RoamingContext):
    """Concrete context backed by the simulator state."""

    def __init__(self, sim: "_RoamingSimulation") -> None:
        self._sim = sim

    @property
    def now_s(self) -> float:
        return self._sim.now_s

    @property
    def current_ap(self) -> int:
        return self._sim.current_ap

    @property
    def n_aps(self) -> int:
        return self._sim.n_aps

    def current_rssi_dbm(self) -> float:
        return self._sim.measured_rssi(self._sim.current_ap)

    def scan(self) -> Dict[int, float]:
        self._sim.charge_scan()
        return {ap: self._sim.measured_rssi(ap) for ap in range(self._sim.n_aps)}

    def accelerometer_moving(self) -> bool:
        return self._sim.device_mobile_now()

    def mobility_estimate(self) -> Optional[MobilityEstimate]:
        return self._sim.classifier.estimate

    def neighbor_report(self) -> Dict[int, NeighborObservation]:
        return {
            ap: NeighborObservation(
                rssi_dbm=self._sim.measured_rssi(ap),
                heading=self._sim.neighbor_heading(ap),
                distance_m=self._sim.neighbor_distance(ap),
            )
            for ap in range(self._sim.n_aps)
        }


class _RoamingSimulation:
    """Mutable state of one run (kept separate from the public function)."""

    #: Telemetry sink plus the client label stamped on emitted events
    #: (bound by :meth:`RoamingSession.bind_recorder`).
    recorder: Recorder = NULL_RECORDER
    client_label: str = "client"

    def __init__(
        self,
        multi: MultiApTraces,
        scheme: RoamingScheme,
        device_mobile_truth: Optional[np.ndarray],
        error_model: ErrorModel,
        mac_efficiency: float,
        scan_outage_s: float,
        handoff_outage_s: float,
        forced_handoff_outage_s: float,
        classifier_config: ClassifierConfig,
        tof_config: ToFConfig,
        rssi_noise_db: float,
        seed: SeedLike,
    ) -> None:
        self.multi = multi
        self.scheme = scheme
        self.device_mobile_truth = device_mobile_truth
        self.error_model = error_model
        self.mac_efficiency = mac_efficiency
        self.scan_outage_s = scan_outage_s
        self.handoff_outage_s = handoff_outage_s
        self.forced_handoff_outage_s = forced_handoff_outage_s
        self.classifier_config = classifier_config

        rng = ensure_rng(seed)
        self._rssi_rng, measurement_rng, *tof_seeds = spawn_rngs(rng, 2 + multi.floorplan.n_aps)
        self.n_aps = multi.floorplan.n_aps
        self.rssi_noise_db = rssi_noise_db

        # Measured CSI per AP (for the serving AP's classifier).
        self._measured_h = [
            trace.measured_csi(measurement_rng) if trace.h is not None else None
            for trace in multi.traces
        ]
        # ToF streams: trajectory-cadence distances + per-AP noise.
        self.neighbors = NeighborToF(
            multi.trajectory.times,
            [
                ToFSampler(tof_config, seed=tof_seed).sample(multi.distances_to_ap(ap_index))
                for ap_index, tof_seed in enumerate(tof_seeds)
            ],
            classifier_config.tof,
        )
        self._neighbor_rangers = [ToFRangeEstimator(tof_config) for _ in range(self.n_aps)]
        self._neighbor_distances: List[Optional[float]] = [None] * self.n_aps

        self.classifier = MobilityClassifier(classifier_config)
        self.current_ap = multi.strongest_ap(0)
        self.now_s = float(multi.times[0])
        self.step_index = 0
        self._outage_until = -1e9
        self._next_csi_s = self.now_s
        self.n_scans = 0
        self.handoffs: List[HandoffEvent] = []

    # ------------------------------------------------------------ observables

    def measured_rssi(self, ap: int) -> float:
        true_rssi = float(self.multi.traces[ap].rssi_dbm[self.step_index])
        return true_rssi + float(self._rssi_rng.normal(0.0, self.rssi_noise_db))

    def device_mobile_now(self) -> bool:
        if self.device_mobile_truth is None:
            return False
        return bool(self.device_mobile_truth[self.step_index])

    def neighbor_heading(self, ap: int):
        return self.neighbors.heading(ap)

    def neighbor_distance(self, ap: int):
        return self._neighbor_distances[ap]

    # --------------------------------------------------------------- actions

    def charge_scan(self) -> None:
        self.n_scans += 1
        self._outage_until = max(self._outage_until, self.now_s + self.scan_outage_s)
        if self.recorder.enabled:
            self.recorder.count("scans", client=self.client_label)
            self.recorder.event(
                "adaptation", self.now_s, client=self.client_label, action="scan"
            )

    def perform_handoff(self, target: int, forced: bool) -> None:
        cost = self.forced_handoff_outage_s if forced else self.handoff_outage_s
        self.handoffs.append(
            HandoffEvent(self.now_s, self.current_ap, target, forced_by_controller=forced)
        )
        if self.recorder.enabled:
            self.recorder.count("handoffs", client=self.client_label)
            self.recorder.event(
                "adaptation",
                self.now_s,
                client=self.client_label,
                action="handoff",
                from_ap=self.current_ap,
                target_ap=target,
                forced=forced,
            )
        self.current_ap = target
        self._outage_until = max(self._outage_until, self.now_s + cost)
        # The new AP has no CSI/ToF history for this client yet.
        self.classifier.reset()
        self._next_csi_s = self.now_s + self.classifier_config.csi_sampling_period_s

    # -------------------------------------------------------------- advancing

    def advance_sensing(self, until_s: float) -> None:
        """Feed ToF (all APs) and CSI (serving AP) streams up to ``until_s``."""
        neighbors = self.neighbors
        due = neighbors.advance(until_s)
        for ap in range(self.n_aps):
            for reading in neighbors.readings[ap, due.start : due.stop]:
                estimate = self._neighbor_rangers[ap].push(float(reading))
                if estimate is not None:
                    self._neighbor_distances[ap] = estimate.distance_m
        if self.classifier.wants_tof:
            serving = neighbors.readings[self.current_ap]
            for i in due:
                self.classifier.push_tof(float(neighbors.times[i]), float(serving[i]))
        while self._next_csi_s <= until_s:
            h = self._measured_h[self.current_ap]
            if h is not None:
                # Nearest channel sample at or before the CSI instant.
                idx = int(np.searchsorted(self.multi.times, self._next_csi_s, side="right") - 1)
                idx = min(max(idx, 0), len(self.multi.times) - 1)
                self.classifier.push_csi(self._next_csi_s, h[idx])
            self._next_csi_s += self.classifier_config.csi_sampling_period_s

    def goodput_now(self) -> float:
        if self.now_s < self._outage_until:
            return 0.0
        trace = self.multi.traces[self.current_ap]
        snr = float(trace.snr_db[self.step_index])
        condition = float(trace.mimo_condition_db[self.step_index])
        return self.error_model.expected_goodput_mbps(
            snr, mimo_condition_db=condition
        ) * self.mac_efficiency


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
        self._sim = _RoamingSimulation(
            multi,
            scheme,
            device_mobile_truth,
            error_model,
            mac_efficiency,
            scan_outage_s,
            handoff_outage_s,
            forced_handoff_outage_s,
            classifier_config,
            tof_config,
            rssi_noise_db,
            seed,
        )
        self.scheme = scheme
        self._ctx = _SimContext(self._sim)
        n = len(multi.times)
        self._goodput = np.empty(n)
        self._ap_timeline = np.empty(n, dtype=int)

    def bind_recorder(self, recorder: Recorder) -> None:
        super().bind_recorder(recorder)
        self._sim.recorder = recorder
        self._sim.client_label = self.client
        self._sim.classifier.recorder = recorder
        self._sim.classifier.telemetry_client = self.client

    def start(self, grid: TimeGrid) -> None:
        del grid
        self.scheme.reset()

    def sense(self, clock: StepClock) -> None:
        sim = self._sim
        sim.step_index = clock.index
        sim.now_s = clock.start_s
        sim.advance_sensing(sim.now_s)

    def adapt(self, clock: StepClock) -> None:
        sim = self._sim
        decision = self.scheme.decide(self._ctx)
        if decision.wants_roam and decision.target_ap != sim.current_ap:
            sim.perform_handoff(int(decision.target_ap), decision.forced)
        self._ap_timeline[clock.index] = sim.current_ap

    def transmit(self, clock: StepClock) -> None:
        self._goodput[clock.index] = self._sim.goodput_now()

    def finish(self) -> RoamingRunResult:
        if self.recorder.enabled:
            sim = self._sim
            self.recorder.gauge("roaming.handoffs", float(len(sim.handoffs)), client=self.client)
            self.recorder.gauge("roaming.scans", float(sim.n_scans), client=self.client)
            self.recorder.gauge(
                "roaming.mean_goodput_mbps", float(np.mean(self._goodput)), client=self.client
            )
        return RoamingRunResult(
            times=np.asarray(self._sim.multi.times, dtype=float),
            goodput_mbps=self._goodput,
            ap_timeline=self._ap_timeline,
            handoffs=self._sim.handoffs,
            n_scans=self._sim.n_scans,
        )

