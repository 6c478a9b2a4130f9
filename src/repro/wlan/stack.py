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
scheduler fires).  Sensing, RSSI, scans and handoffs are the
:class:`repro.roaming.walk.ClientWalk` model the roaming session runs
too; the mobility-oblivious arm never advances its sensing.
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
from repro.core.classifier import ClassifierConfig
from repro.core.hints import MobilityEstimate
from repro.core.policy import PolicyTable, default_policy_table
from repro.mac.aggregation import FrameTransmitter
from repro.phy.csi_feedback import CSIFeedbackConfig, feedback_airtime_s
from repro.phy.error import ErrorModel
from repro.phy.mcs import single_stream_mcs
from repro.phy.tof import ToFConfig
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.base import RateAdapter
from repro.rate.mobility_aware import MobilityAwareAtherosRA
from repro.roaming.base import RoamingScheme
from repro.roaming.schemes import ControllerRoaming, DefaultClientRoaming
from repro.roaming.walk import ClientWalk
from repro.sim.engine import Session, StepClock, TimeGrid
from repro.telemetry.recorder import Recorder
from repro.util.rng import SeedLike, spawn_rngs
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
        (
            rssi_rng,
            measurement_rng,
            transmitter_rng,
            perturbation_rng,
            *tof_seeds,
        ) = spawn_rngs(seed, 4 + multi.floorplan.n_aps)
        times = multi.times
        self._perturbations = LinkPerturbations(
            float(times[0]), float(times[-1]) + 1.0, seed=perturbation_rng
        )
        self._transmitter = FrameTransmitter(error_model=error_model, seed=transmitter_rng)
        self._sim = ClientWalk(
            multi,
            classifier_config,
            tof_config,
            rssi_rng,
            measurement_rng,
            tof_seeds,
            on_estimate=self._apply_estimate,
        )
        self._feedback_airtime_s = feedback_airtime_s(
            CSIFeedbackConfig(
                n_subcarriers=multi.traces[0].h.shape[1] if multi.traces[0].h is not None else 52,
                n_tx=3,
                n_rx=1,
            )
        )
        self._weights: Optional[np.ndarray] = None
        self._n_feedbacks = 0
        components.roaming.reset()
        components.rate.reset()
        components.feedback.reset()
        self._goodput = np.zeros(len(times))
        self._estimates: List = []

    def bind_recorder(self, recorder: Recorder) -> None:
        super().bind_recorder(recorder)
        self._sim.bind_recorder(recorder, self.client)

    def start(self, grid: TimeGrid) -> None:
        self._sim.start(grid)

    def sense(self, clock: StepClock) -> None:
        self._sim.move_to(clock)
        if self.components.uses_classifier:  # the mobility-oblivious arm never senses
            self._sim.advance(clock.start_s)

    def classify(self, clock: StepClock) -> None:
        estimate = self._sim.classifier.estimate
        if estimate is not None and (not self._estimates or self._estimates[-1] is not estimate):
            self._estimates.append(estimate)

    def adapt(self, clock: StepClock) -> None:
        if self._sim.roam(self.components.roaming):
            # The new AP starts without beamforming weights or rate history.
            self._weights = None
            self.components.rate.reset()
            self.components.feedback.reset()

    def transmit(self, clock: StepClock) -> None:
        sim = self._sim
        components = self.components
        t = max(sim.now_s, sim.outage_until)
        delivered_bytes = 0
        trace = sim.multi.traces[sim.current_ap]
        doppler = float(trace.doppler_hz[clock.index])
        while t < clock.end_s:
            if components.feedback.due(t):
                self._refresh_beamforming_weights()
                components.feedback.mark(t)
                t += self._feedback_airtime_s
                continue
            fade_db, in_burst = self._perturbations.advance(t, doppler)
            snr_eff = self._beamformed_snr_db() + fade_db
            if in_burst:
                snr_eff -= self._perturbations.config.interference_penalty_db
            mcs = components.rate.select(t)
            frame = self._transmitter.transmit(
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
            self.recorder.gauge("stack.handoffs", float(len(sim.handoffs)), client=self.client)
            self.recorder.gauge("stack.scans", float(sim.n_scans), client=self.client)
            self.recorder.gauge("stack.feedbacks", float(self._n_feedbacks), client=self.client)
            self.recorder.gauge(
                "stack.mean_goodput_mbps", float(np.mean(self._goodput)), client=self.client
            )
        return StackRunResult(
            times=np.asarray(sim.multi.times, dtype=float),
            goodput_mbps=self._goodput,
            ap_timeline=sim.ap_timeline,
            n_handoffs=len(sim.handoffs),
            n_scans=sim.n_scans,
            n_feedbacks=self._n_feedbacks,
            estimates=self._estimates,
        )

    def _apply_estimate(self, time_s: float, estimate: MobilityEstimate) -> None:
        """Hand a fresh estimate to rate control, aggregation and feedback."""
        components = self.components
        components.rate.update_hint(estimate)
        components.aggregation.update_hint(estimate)
        components.feedback.update_hint(estimate)
        if self.recorder.enabled:
            self.recorder.event(
                "adaptation",
                time_s,
                client=self.client,
                action="hint_applied",
                mode=estimate.mode.value,
                heading=estimate.heading.value,
            )

    def _beamformed_snr_db(self) -> float:
        sim = self._sim
        trace = sim.multi.traces[sim.current_ap]
        snr = float(trace.snr_db[sim.step_index])
        h = trace.h
        if h is None or self._weights is None:
            return snr
        h_now = np.asarray(h[sim.step_index])[..., 0]  # (K, T): first rx chain
        received = beamforming_gain(h_now, self._weights)
        reference = float(np.mean(np.abs(h_now) ** 2))
        gain = float(np.mean(received)) / max(reference, 1e-15)
        return snr + 10.0 * np.log10(max(gain, 1e-3))

    def _refresh_beamforming_weights(self) -> None:
        sim = self._sim
        h = sim.measured_h[sim.current_ap]
        if h is None:
            return
        self._weights = mrt_weights(np.asarray(h[sim.step_index])[..., 0])
        self._n_feedbacks += 1
        if self.recorder.enabled:
            self.recorder.count("feedback_refreshes", client=self.client)
