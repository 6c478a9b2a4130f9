"""The integrated AP stack: roaming + rate control + aggregation + TxBF.

This is the Section-7 system: the serving AP classifies the client's
mobility from CSI/ToF and feeds the estimate to all four protocols
(Table 2).  The mobility-oblivious arm runs the same machinery with the
stock fixed parameters (client-default roaming, alpha = 1/8 Atheros RA,
4 ms aggregation, 200 ms CSI feedback).

Simulation structure: the outer decision loop at the channel sampling
cadence is owned by :class:`repro.sim.SimulationEngine`; this module only
provides :class:`StackSession` — the per-step behaviour (sensing,
classification, roaming, then an inner frame loop that transmits A-MPDUs
back-to-back within each step, charging CSI-feedback airtime when the
scheduler fires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.aggregation.policy import (
    AggregationPolicy,
    FixedAggregation,
    MobilityAwareAggregation,
)
from repro.beamforming.feedback import (
    FeedbackScheduler,
    FixedPeriodFeedback,
    MobilityAwareFeedback,
)
from repro.beamforming.precoding import beamforming_gain, mrt_weights
from repro.channel.perturbations import LinkPerturbations
from repro.core.classifier import ClassifierConfig, MobilityClassifier
from repro.core.policy import PolicyTable, default_policy_table
from repro.mac.aggregation import FrameTransmitter
from repro.phy.csi_feedback import CSIFeedbackConfig, feedback_airtime_s
from repro.phy.error import ErrorModel
from repro.phy.mcs import single_stream_mcs
from repro.phy.tof import ToFConfig, ToFSampler
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.base import RateAdapter
from repro.rate.mobility_aware import MobilityAwareAtherosRA
from repro.roaming.base import NeighborObservation, NeighborToF, RoamingContext, RoamingScheme
from repro.roaming.schemes import ControllerRoaming, DefaultClientRoaming
from repro.sim.engine import Session, StepClock
from repro.telemetry.recorder import NULL_RECORDER, Recorder
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs
from repro.wlan.multilink import MultiApTraces
from repro.wlan.traffic import TcpModel


@dataclass
class StackRunResult:
    """Outcome of one end-to-end run."""

    times: np.ndarray
    goodput_mbps: np.ndarray
    ap_timeline: np.ndarray
    n_handoffs: int
    n_scans: int
    n_feedbacks: int
    estimates: List = field(default_factory=list)

    @property
    def mean_throughput_mbps(self) -> float:
        return float(np.mean(self.goodput_mbps))

    def tcp_throughput_mbps(self, tcp: Optional[TcpModel] = None) -> float:
        tcp = tcp or TcpModel()
        return tcp.mean_throughput_mbps(self.times, self.goodput_mbps)


@dataclass
class StackComponents:
    """The four protocol components of one arm."""

    roaming: RoamingScheme
    rate: RateAdapter
    aggregation: AggregationPolicy
    feedback: FeedbackScheduler
    uses_classifier: bool


def mobility_aware_stack(policy_table: Optional[PolicyTable] = None) -> StackComponents:
    """The paper's full mobility-aware configuration.

    Data frames are beamformed (single stream), so the rate controllers use
    the MCS 0-7 ladder.
    """
    table = policy_table or default_policy_table()
    return StackComponents(
        roaming=ControllerRoaming(),
        rate=MobilityAwareAtherosRA(policy_table=table, ladder=single_stream_mcs()),
        aggregation=MobilityAwareAggregation(policy_table=table),
        feedback=MobilityAwareFeedback(policy_table=table),
        uses_classifier=True,
    )


def default_stack() -> StackComponents:
    """The mobility-oblivious 802.11n defaults."""
    return StackComponents(
        roaming=DefaultClientRoaming(),
        rate=AtherosRateAdaptation(ladder=single_stream_mcs()),
        aggregation=FixedAggregation(4.0),
        feedback=FixedPeriodFeedback(200.0),
        uses_classifier=False,
    )


class _StackContext(RoamingContext):
    def __init__(self, sim: "_StackSimulation") -> None:
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

    def scan(self):
        sim = self._sim
        sim.charge_outage(sim.scan_outage_s)
        sim.n_scans += 1
        if sim.recorder.enabled:
            sim.recorder.count("scans", client=sim.client_label)
            sim.recorder.event(
                "adaptation", sim.now_s, client=sim.client_label, action="scan"
            )
        return {ap: sim.measured_rssi(ap) for ap in range(sim.n_aps)}

    def accelerometer_moving(self) -> bool:
        return False  # neither arm uses client sensors

    def mobility_estimate(self):
        return self._sim.classifier.estimate if self._sim.components.uses_classifier else None

    def neighbor_report(self):
        return {
            ap: NeighborObservation(
                rssi_dbm=self._sim.measured_rssi(ap),
                heading=self._sim.neighbors.heading(ap),
            )
            for ap in range(self._sim.n_aps)
        }


class _StackSimulation:
    #: Telemetry sink plus the client label stamped on emitted events
    #: (bound by :meth:`StackSession.bind_recorder`).
    recorder: Recorder = NULL_RECORDER
    client_label: str = "client"

    def __init__(
        self,
        multi: MultiApTraces,
        components: StackComponents,
        error_model: ErrorModel,
        classifier_config: ClassifierConfig,
        tof_config: ToFConfig,
        seed: SeedLike,
    ) -> None:
        self.multi = multi
        self.components = components
        self.error_model = error_model
        self.classifier_config = classifier_config
        self.n_aps = multi.floorplan.n_aps
        self.scan_outage_s = 0.150
        self.handoff_outage_s = 0.250
        self.forced_handoff_outage_s = 0.200

        rng = ensure_rng(seed)
        (
            self._rssi_rng,
            measurement_rng,
            transmitter_rng,
            perturbation_rng,
            *tof_seeds,
        ) = spawn_rngs(rng, 4 + self.n_aps)
        times = multi.times
        self.perturbations = LinkPerturbations(
            float(times[0]), float(times[-1]) + 1.0, seed=perturbation_rng
        )
        self.transmitter = FrameTransmitter(error_model=error_model, seed=transmitter_rng)
        self._measured_h = [
            trace.measured_csi(measurement_rng) if trace.h is not None else None
            for trace in multi.traces
        ]
        self.neighbors = NeighborToF(
            multi.trajectory.times,
            [
                ToFSampler(tof_config, seed=s).sample(multi.distances_to_ap(i))
                for i, s in enumerate(tof_seeds)
            ],
            classifier_config.tof,
        )
        self.classifier = MobilityClassifier(classifier_config)
        self.feedback_config = CSIFeedbackConfig(
            n_subcarriers=multi.traces[0].h.shape[1] if multi.traces[0].h is not None else 52,
            n_tx=3,
            n_rx=1,
        )
        self.feedback_airtime_s = feedback_airtime_s(self.feedback_config)

        self.current_ap = multi.strongest_ap(0)
        self.now_s = float(multi.times[0])
        self.step_index = 0
        self._outage_until = -1e9
        self._next_csi_s = self.now_s
        self._weights: Optional[np.ndarray] = None
        self.n_scans = 0
        self.n_handoffs = 0
        self.n_feedbacks = 0

    def measured_rssi(self, ap: int) -> float:
        return float(self.multi.traces[ap].rssi_dbm[self.step_index]) + float(
            self._rssi_rng.normal(0.0, 1.0)
        )

    def charge_outage(self, duration_s: float) -> None:
        self._outage_until = max(self._outage_until, self.now_s + duration_s)

    def perform_handoff(self, target: int, forced: bool) -> None:
        self.charge_outage(self.forced_handoff_outage_s if forced else self.handoff_outage_s)
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
        self.n_handoffs += 1
        self.classifier.reset()
        self._weights = None
        self.components.rate.reset()
        self.components.feedback.reset()
        self._next_csi_s = self.now_s + self.classifier_config.csi_sampling_period_s

    def advance_sensing(self, until_s: float) -> None:
        if not self.components.uses_classifier:
            return  # the mobility-oblivious arm never senses
        neighbors = self.neighbors
        due = neighbors.advance(until_s)
        if self.classifier.wants_tof:
            serving = neighbors.readings[self.current_ap]
            for i in due:
                self.classifier.push_tof(float(neighbors.times[i]), float(serving[i]))
        while self._next_csi_s <= until_s:
            h = self._measured_h[self.current_ap]
            if h is not None:
                idx = int(np.searchsorted(self.multi.times, self._next_csi_s, side="right") - 1)
                idx = min(max(idx, 0), len(self.multi.times) - 1)
                estimate = self.classifier.push_csi(self._next_csi_s, h[idx])
                if estimate is not None and self.components.uses_classifier:
                    self.components.rate.update_hint(estimate)
                    self.components.aggregation.update_hint(estimate)
                    self.components.feedback.update_hint(estimate)
                    if self.recorder.enabled:
                        self.recorder.event(
                            "adaptation",
                            self._next_csi_s,
                            client=self.client_label,
                            action="hint_applied",
                            mode=estimate.mode.value,
                            heading=estimate.heading.value,
                        )
            self._next_csi_s += self.classifier_config.csi_sampling_period_s

    def beamformed_snr_db(self) -> float:
        trace = self.multi.traces[self.current_ap]
        snr = float(trace.snr_db[self.step_index])
        h = trace.h
        if h is None or self._weights is None:
            return snr
        h_now = np.asarray(h[self.step_index])[..., 0]  # (K, T): first rx chain
        received = beamforming_gain(h_now, self._weights)
        reference = float(np.mean(np.abs(h_now) ** 2))
        gain = float(np.mean(received)) / max(reference, 1e-15)
        return snr + 10.0 * np.log10(max(gain, 1e-3))

    def refresh_beamforming_weights(self) -> None:
        h = self._measured_h[self.current_ap]
        if h is None:
            return
        self._weights = mrt_weights(np.asarray(h[self.step_index])[..., 0])
        self.n_feedbacks += 1
        if self.recorder.enabled:
            self.recorder.count("feedback_refreshes", client=self.client_label)


class StackSession(Session):
    """One client's integrated AP stack as an engine session.

    Phases map one-to-one onto the historical loop body: ``sense`` ingests
    ToF/CSI up to the step instant, ``classify`` records the classifier's
    current estimate, ``adapt`` runs the roaming decision, and ``transmit``
    spends the step window on back-to-back A-MPDUs and CSI feedback.
    """

    def __init__(
        self,
        multi: MultiApTraces,
        components: StackComponents,
        error_model: ErrorModel = ErrorModel(),
        classifier_config: ClassifierConfig = ClassifierConfig(),
        tof_config: ToFConfig = ToFConfig(),
        seed: SeedLike = None,
        client: str = "client",
    ) -> None:
        self.client = client
        self.components = components
        self._sim = _StackSimulation(
            multi, components, error_model, classifier_config, tof_config, seed
        )
        components.roaming.reset()
        components.rate.reset()
        components.feedback.reset()
        self._ctx = _StackContext(self._sim)
        n = len(multi.times)
        self._goodput = np.zeros(n)
        self._ap_timeline = np.empty(n, dtype=int)
        self._estimates: List = []

    def bind_recorder(self, recorder: Recorder) -> None:
        super().bind_recorder(recorder)
        self._sim.recorder = recorder
        self._sim.client_label = self.client
        self._sim.classifier.recorder = recorder
        self._sim.classifier.telemetry_client = self.client

    def sense(self, clock: StepClock) -> None:
        sim = self._sim
        sim.step_index = clock.index
        sim.now_s = clock.start_s
        sim.advance_sensing(sim.now_s)

    def classify(self, clock: StepClock) -> None:
        sim = self._sim
        if sim.classifier.estimate is not None and (
            not self._estimates or self._estimates[-1] is not sim.classifier.estimate
        ):
            self._estimates.append(sim.classifier.estimate)

    def adapt(self, clock: StepClock) -> None:
        sim = self._sim
        decision = self.components.roaming.decide(self._ctx)
        if decision.wants_roam and decision.target_ap != sim.current_ap:
            sim.perform_handoff(int(decision.target_ap), decision.forced)
        self._ap_timeline[clock.index] = sim.current_ap

    def transmit(self, clock: StepClock) -> None:
        sim = self._sim
        components = self.components
        t = max(sim.now_s, sim._outage_until)
        delivered_bytes = 0
        trace = sim.multi.traces[sim.current_ap]
        doppler = float(trace.doppler_hz[clock.index])
        while t < clock.end_s:
            if components.feedback.due(t):
                sim.refresh_beamforming_weights()
                components.feedback.mark(t)
                t += sim.feedback_airtime_s
                continue
            fade_db, in_burst = sim.perturbations.advance(t, doppler)
            snr_eff = sim.beamformed_snr_db() + fade_db
            if in_burst:
                snr_eff -= sim.perturbations.config.interference_penalty_db
            mcs = components.rate.select(t)
            frame = sim.transmitter.transmit(
                mcs,
                snr_eff,
                doppler,
                components.aggregation.aggregation_time_s(t),
                mimo_condition_db=40.0,  # beamformed stream is rank one
            )
            components.rate.observe(t, frame)
            delivered_bytes += frame.delivered_bytes
            t += frame.airtime_s
        self._goodput[clock.index] = delivered_bytes * 8 / clock.dt_s / 1e6

    def finish(self) -> StackRunResult:
        sim = self._sim
        if self.recorder.enabled:
            self.recorder.gauge("stack.handoffs", float(sim.n_handoffs), client=self.client)
            self.recorder.gauge("stack.scans", float(sim.n_scans), client=self.client)
            self.recorder.gauge("stack.feedbacks", float(sim.n_feedbacks), client=self.client)
            self.recorder.gauge(
                "stack.mean_goodput_mbps", float(np.mean(self._goodput)), client=self.client
            )
        return StackRunResult(
            times=np.asarray(sim.multi.times, dtype=float),
            goodput_mbps=self._goodput,
            ap_timeline=self._ap_timeline,
            n_handoffs=sim.n_handoffs,
            n_scans=sim.n_scans,
            n_feedbacks=sim.n_feedbacks,
            estimates=self._estimates,
        )

