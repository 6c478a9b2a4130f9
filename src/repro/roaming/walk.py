"""One client walking past the APs: the model every roaming-aware session runs.

In the paper the serving AP classifies the client from CSI and ToF, and
the neighbour APs report the client's RSSI, ToF heading and ToF range to
the controller (Section 3.1).  :class:`ClientWalk` owns that state for
one client — serving AP, clock, outage, measured CSI, every AP's ToF
stream and ranger, the serving AP's classifier — and the actions a
roaming scheme can trigger: noisy RSSI reads, scans and handoffs.  Its
:attr:`ClientWalk.context` is the :class:`RoamingContext` schemes see.

Sessions keep only what differs: :class:`repro.roaming.RoamingSession`
turns the outage state into goodput, :class:`repro.wlan.StackSession`
adds frames, beamforming and per-estimate protocol updates.  Each session
spawns its own RNG streams and hands the walk its share, so the two
keep their historical draw layouts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.classifier import ClassifierConfig, MobilityClassifier
from repro.core.hints import MobilityEstimate
from repro.phy.ranging import ToFRangeEstimator
from repro.phy.tof import ToFConfig, ToFSampler
from repro.roaming.base import (
    HandoffEvent,
    NeighborObservation,
    NeighborToF,
    RoamingContext,
    RoamingScheme,
)
from repro.sim.engine import StepClock, TimeGrid
from repro.telemetry.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # repro.wlan imports this module through its stack
    from repro.wlan.multilink import MultiApTraces


class ClientWalk:
    """Mutable state of one client's walk, shared by the roaming and stack sessions.

    ``device_mobile_truth`` (bool per channel sample) is the accelerometer
    ground truth offered to sensor-hint roaming; without it the
    accelerometer never reports motion.  ``on_estimate(time_s, estimate)``
    is called for each estimate the serving AP's classifier produces while
    sensing.
    """

    #: Telemetry sink plus the client label stamped on emitted events.
    recorder: Recorder = NULL_RECORDER
    client_label: str = "client"

    def __init__(
        self,
        multi: MultiApTraces,
        classifier_config: ClassifierConfig,
        tof_config: ToFConfig,
        rssi_rng: np.random.Generator,
        measurement_rng: np.random.Generator,
        tof_seeds: Sequence[np.random.Generator],
        rssi_noise_db: float = 1.0,
        scan_outage_s: float = 0.150,
        handoff_outage_s: float = 0.250,
        forced_handoff_outage_s: float = 0.200,
        device_mobile_truth: Optional[np.ndarray] = None,
        on_estimate: Optional[Callable[[float, MobilityEstimate], None]] = None,
    ) -> None:
        self.multi = multi
        self.classifier_config = classifier_config
        self.n_aps = multi.floorplan.n_aps
        self.rssi_noise_db = rssi_noise_db
        self.scan_outage_s = scan_outage_s
        self.handoff_outage_s = handoff_outage_s
        self.forced_handoff_outage_s = forced_handoff_outage_s
        self.device_mobile_truth = device_mobile_truth
        self._on_estimate = on_estimate
        self._rssi_rng = rssi_rng

        #: Measured CSI per AP (``None`` for traces without ``h``).
        self.measured_h = [
            trace.measured_csi(measurement_rng) if trace.h is not None else None
            for trace in multi.traces
        ]
        # ToF streams: trajectory-cadence distances + per-AP noise.
        self.neighbors = NeighborToF(
            multi.trajectory.times,
            [
                ToFSampler(tof_config, seed=tof_seed).sample(multi.distances_to_ap(ap))
                for ap, tof_seed in enumerate(tof_seeds)
            ],
            classifier_config.tof,
        )
        self._rangers = [ToFRangeEstimator(tof_config) for _ in range(self.n_aps)]
        self.neighbor_distances: List[Optional[float]] = [None] * self.n_aps
        self.classifier = MobilityClassifier(classifier_config)

        self.current_ap = multi.strongest_ap(0)
        self.now_s = float(multi.times[0])
        self.step_index = 0
        self.outage_until = -1e9
        self._next_csi_s = self.now_s
        self.n_scans = 0
        self.handoffs: List[HandoffEvent] = []
        self.ap_timeline = np.empty(len(multi.times), dtype=int)
        self.context: RoamingContext = _WalkContext(self)

    def bind_recorder(self, recorder: Recorder, client: str) -> None:
        self.recorder = recorder
        self.client_label = client
        self.classifier.recorder = recorder
        self.classifier.telemetry_client = client

    def start(self, grid: TimeGrid) -> None:
        """Reject a grid (or accelerometer truth) that does not cover the walk."""
        n = len(self.multi.times)
        if len(grid) != n:
            raise ValueError(f"a {len(grid)}-step grid does not match the {n}-sample walk")
        truth = self.device_mobile_truth
        if truth is not None and len(truth) != n:
            raise ValueError(
                f"{len(truth)} accelerometer samples cannot cover the {n}-sample walk"
            )

    def move_to(self, clock: StepClock) -> None:
        self.step_index = clock.index
        self.now_s = clock.start_s

    # ------------------------------------------------------------ observables

    def measured_rssi(self, ap: int) -> float:
        true_rssi = float(self.multi.traces[ap].rssi_dbm[self.step_index])
        return true_rssi + float(self._rssi_rng.normal(0.0, self.rssi_noise_db))

    # --------------------------------------------------------------- actions

    def charge_outage(self, duration_s: float) -> None:
        self.outage_until = max(self.outage_until, self.now_s + duration_s)

    def scan(self) -> Dict[int, float]:
        """All APs' RSSI, at the cost of the scan outage."""
        self.charge_outage(self.scan_outage_s)
        self.n_scans += 1
        if self.recorder.enabled:
            self.recorder.count("scans", client=self.client_label)
            self.recorder.event(
                "adaptation", self.now_s, client=self.client_label, action="scan"
            )
        return {ap: self.measured_rssi(ap) for ap in range(self.n_aps)}

    def roam(self, scheme: RoamingScheme) -> bool:
        """Run ``scheme``'s decision for this step; True when it handed off."""
        decision = scheme.decide(self.context)
        handed_off = decision.wants_roam and decision.target_ap != self.current_ap
        if handed_off:
            self.handoff(int(decision.target_ap), decision.forced)
        self.ap_timeline[self.step_index] = self.current_ap
        return handed_off

    def handoff(self, target: int, forced: bool) -> None:
        self.charge_outage(self.forced_handoff_outage_s if forced else self.handoff_outage_s)
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
        # The new AP has no CSI/ToF history for this client yet.
        self.classifier.reset()
        self._next_csi_s = self.now_s + self.classifier_config.csi_sampling_period_s

    def advance(self, until_s: float) -> None:
        """Feed ToF (all APs) and CSI (serving AP) streams up to ``until_s``."""
        neighbors = self.neighbors
        due = neighbors.advance(until_s)
        for ap, ranger in enumerate(self._rangers):
            for reading in neighbors.readings[ap, due.start : due.stop]:
                estimate = ranger.push(float(reading))
                if estimate is not None:
                    self.neighbor_distances[ap] = estimate.distance_m
        classifier = self.classifier
        if classifier.wants_tof:
            serving = neighbors.readings[self.current_ap]
            for i in due:
                classifier.push_tof(float(neighbors.times[i]), float(serving[i]))
        times = self.multi.times
        while self._next_csi_s <= until_s:
            h = self.measured_h[self.current_ap]
            if h is not None:
                # Nearest channel sample at or before the CSI instant.
                idx = int(np.searchsorted(times, self._next_csi_s, side="right") - 1)
                idx = min(max(idx, 0), len(times) - 1)
                hint = classifier.push_csi(self._next_csi_s, h[idx])
                if hint is not None and self._on_estimate is not None:
                    self._on_estimate(self._next_csi_s, hint)
            self._next_csi_s += self.classifier_config.csi_sampling_period_s


class _WalkContext(RoamingContext):
    """The observables a roaming scheme reads from a :class:`ClientWalk`."""

    def __init__(self, walk: ClientWalk) -> None:
        self._walk = walk

    @property
    def now_s(self) -> float:
        return self._walk.now_s

    @property
    def current_ap(self) -> int:
        return self._walk.current_ap

    @property
    def n_aps(self) -> int:
        return self._walk.n_aps

    def current_rssi_dbm(self) -> float:
        return self._walk.measured_rssi(self._walk.current_ap)

    def scan(self) -> Dict[int, float]:
        return self._walk.scan()

    def accelerometer_moving(self) -> bool:
        truth = self._walk.device_mobile_truth
        return truth is not None and bool(truth[self._walk.step_index])

    def mobility_estimate(self) -> Optional[MobilityEstimate]:
        return self._walk.classifier.estimate

    def neighbor_report(self) -> Dict[int, NeighborObservation]:
        walk = self._walk
        return {
            ap: NeighborObservation(
                rssi_dbm=walk.measured_rssi(ap),
                heading=walk.neighbors.heading(ap),
                distance_m=walk.neighbor_distances[ap],
            )
            for ap in range(walk.n_aps)
        }
