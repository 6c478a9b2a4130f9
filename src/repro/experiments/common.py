"""Shared experiment machinery: classification runs and scoring.

The paper evaluates classification by subjecting a client to known mobility
at many locations and scoring every per-second decision against ground
truth (Table 1, Fig. 6).  :func:`run_classification` reproduces that
pipeline end to end: trajectory -> channel -> measured CSI / noisy ToF ->
classifier -> scored decisions.

Sensing runs are driven by :class:`repro.sim.SimulationEngine` with each
link as a one-member :class:`repro.sim.BatchedSensingSession`; cadences
(CSI, ToF) map onto grid strides through
:meth:`repro.sim.TimeGrid.stride_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.config import ChannelConfig
from repro.channel.model import LinkChannel
from repro.core.batched import BatchedMobilityClassifier
from repro.core.classifier import ClassifierConfig
from repro.core.hints import MobilityEstimate
from repro.faults import FaultPlan
from repro.mobility.modes import MODE_ORDER, GroundTruth, MobilityMode
from repro.mobility.scenarios import MobilityScenario
from repro.phy.tof import ToFConfig, ToFSampler
from repro.sim import (
    BatchedSensingSession,
    FailureRecord,
    SimulationEngine,
    SupervisorConfig,
    TimeGrid,
)
from repro.telemetry.recorder import NULL_RECORDER, Recorder
from repro.util.geometry import Point
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs, stable_seed

#: Trajectory time step used by classification runs — the ToF cadence.
TRAJECTORY_DT_S = 0.02

#: Client label of a single-link sensing run: names its one-member cohort,
#: its run result, its failure record and its telemetry series.
LINK_LABEL = "client"


@dataclass
class ClassificationOutcome:
    """Scored decisions of one classification run."""

    decisions: List[Tuple[MobilityEstimate, GroundTruth]] = field(default_factory=list)
    #: Seconds after a ground-truth transition during which decisions are
    #: not scored (inherent detection delay; the trend window must refill).
    grace_s: float = 0.0

    def accuracy(self) -> float:
        scored = self.decisions
        if not scored:
            raise ValueError("no decisions to score")
        hits = sum(1 for est, gt in scored if gt.matches(est.mode, est.heading))
        return hits / len(scored)

    def mode_accuracy(self) -> float:
        """Accuracy ignoring the towards/away heading split."""
        scored = self.decisions
        if not scored:
            raise ValueError("no decisions to score")
        hits = sum(1 for est, gt in scored if est.mode == gt.mode)
        return hits / len(scored)

    def __len__(self) -> int:
        return len(self.decisions)


class ConfusionMatrix:
    """Mode-level confusion counts, printable as the paper's Table 1."""

    def __init__(self) -> None:
        self._counts: Dict[Tuple[MobilityMode, MobilityMode], int] = {}

    def add(self, truth: MobilityMode, estimate: MobilityMode, count: int = 1) -> None:
        key = (truth, estimate)
        self._counts[key] = self._counts.get(key, 0) + count

    def add_outcome(self, outcome: ClassificationOutcome) -> None:
        for est, gt in outcome.decisions:
            self.add(gt.mode, est.mode)

    def row(self, truth: MobilityMode) -> Dict[MobilityMode, float]:
        total = sum(self._counts.get((truth, m), 0) for m in MODE_ORDER)
        if total == 0:
            return {m: 0.0 for m in MODE_ORDER}
        return {m: self._counts.get((truth, m), 0) / total for m in MODE_ORDER}

    def accuracy(self, truth: MobilityMode) -> float:
        return self.row(truth).get(truth, 0.0)

    def format_table(self) -> str:
        header = f"{'ground truth':<16}" + "".join(f"{m.value:>16}" for m in MODE_ORDER)
        lines = [header]
        for truth in MODE_ORDER:
            row = self.row(truth)
            lines.append(
                f"{truth.value:<16}"
                + "".join(f"{100.0 * row[m]:>15.1f}%" for m in MODE_ORDER)
            )
        return "\n".join(lines)


def classification_decisions(
    scenario: MobilityScenario,
    ap: Point,
    duration_s: float = 120.0,
    channel_config: ChannelConfig = ChannelConfig(),
    classifier_config: ClassifierConfig = ClassifierConfig(),
    tof_config: ToFConfig = ToFConfig(),
    warmup_s: float = 5.0,
    grace_s: float = 0.0,
    seed: SeedLike = None,
    recorder: Recorder = NULL_RECORDER,
) -> ClassificationOutcome:
    """Run the full sensing pipeline once and score every decision.

    ``grace_s`` excludes decisions within that many seconds after a
    ground-truth transition (mode or heading change): the classifier cannot
    react faster than its trend window, and the paper's per-location scoring
    evaluates settled behaviour.
    """
    rng = ensure_rng(seed)
    channel_rng, csi_rng, tof_rng, scenario_rng = spawn_rngs(rng, 4)
    del scenario_rng  # scenarios carry their own seeded trajectory

    trajectory = scenario.sample(duration_s, TRAJECTORY_DT_S)
    truths = scenario.ground_truth(trajectory, ap)

    link = LinkChannel(ap, channel_config, environment=scenario.environment, seed=channel_rng)
    fine_grid = TimeGrid(trajectory.times, fallback_dt_s=TRAJECTORY_DT_S)
    csi_stride = fine_grid.stride_for(
        classifier_config.csi_sampling_period_s, strict=False, name="csi_sampling_period_s"
    )
    trace = link.evaluate(
        trajectory.times[::csi_stride], trajectory.positions[::csi_stride], include_h=True
    )
    measured = trace.measured_csi(csi_rng)

    sampler = ToFSampler(tof_config, seed=tof_rng)
    tof_readings = sampler.sample(trajectory.distances_to(ap))

    # Ground-truth transition times (for the grace window).  The start of
    # the run counts as a transition: the classifier begins with no history.
    transition_times: List[float] = [0.0]
    for i in range(1, len(truths)):
        if truths[i].mode != truths[i - 1].mode or truths[i].heading != truths[i - 1].heading:
            transition_times.append(float(trajectory.times[i]))
    transitions = np.asarray(transition_times)

    outcome = ClassificationOutcome(grace_s=grace_s)

    def score(client: str, now: float, estimate: MobilityEstimate) -> None:
        if now < warmup_s:
            return
        if grace_s > 0.0 and len(transitions):
            since = now - transitions[transitions <= now]
            if len(since) and float(since.min()) < grace_s:
                return
        truth_index = min(int(now / TRAJECTORY_DT_S), len(truths) - 1)
        outcome.decisions.append((estimate, truths[truth_index]))

    session = BatchedSensingSession(
        BatchedMobilityClassifier([LINK_LABEL], classifier_config),
        [measured],
        [trajectory.times],
        [tof_readings],
        client=LINK_LABEL,
        on_estimate=score,
    )
    engine = SimulationEngine(TimeGrid(trace.times), recorder=recorder)
    engine.add(session)
    engine.run()
    return outcome


def run_classification(
    scenarios: Sequence[MobilityScenario],
    ap: Point,
    duration_s: float = 120.0,
    grace_s: float = 5.0,
    seed: SeedLike = None,
    classifier_config: ClassifierConfig = ClassifierConfig(),
) -> ConfusionMatrix:
    """Score a batch of scenarios into one confusion matrix."""
    rng = ensure_rng(seed)
    matrix = ConfusionMatrix()
    for scenario in scenarios:
        outcome = classification_decisions(
            scenario,
            ap,
            duration_s=duration_s,
            grace_s=grace_s,
            classifier_config=classifier_config,
            seed=rng,
        )
        matrix.add_outcome(outcome)
    return matrix


def standard_client_positions(
    n_locations: int,
    ap: Point = Point(0.0, 0.0),
    min_distance_m: float = 4.0,
    max_distance_m: float = 28.0,
    seed: SeedLike = None,
) -> List[Point]:
    """Client locations spread around an AP, as in the paper's >10-location
    evaluation: distances span strong to weak coverage."""
    rng = ensure_rng(seed if seed is not None else stable_seed("locations"))
    points = []
    for _ in range(n_locations):
        radius = float(rng.uniform(min_distance_m, max_distance_m))
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        points.append(Point(ap.x + radius * np.cos(angle), ap.y + radius * np.sin(angle)))
    return points


def bounded_walk_scenario(
    start: Point,
    ap: Point,
    min_distance_m: float = 10.0,
    max_distance_m: float = 38.0,
    leg_duration_s: float = 15.0,
    speed: float = 1.2,
    seed: SeedLike = None,
) -> MobilityScenario:
    """An approach/retreat walk confined to realistic office distances.

    Used by the protocol experiments: the client never gets closer than
    ``min_distance_m`` to the AP (walls, desks), so the link spans the SNR
    range where protocol decisions matter.
    """
    from repro.mobility.environment import EnvironmentActivity, EnvironmentProcess
    from repro.mobility.trajectory import ApproachRetreatTrajectory

    trajectory = ApproachRetreatTrajectory(
        anchor=ap,
        start=start,
        min_distance_m=min_distance_m,
        max_distance_m=max_distance_m,
        leg_duration_s=leg_duration_s,
        speed=speed,
        seed=ensure_rng(seed),
    )
    return MobilityScenario(
        name="macro",
        mode=MobilityMode.MACRO,
        trajectory=trajectory,
        environment=EnvironmentProcess.from_activity(EnvironmentActivity.NONE),
    )


def tof_config_interval(classifier_config: ClassifierConfig) -> float:
    """The configured raw-ToF sampling interval."""
    return classifier_config.tof.sample_interval_s


@dataclass
class SensedLink:
    """One link fully sensed: trajectory, channel trace, classifier output.

    ``failure`` is only set when the run used a non-fail-fast supervisor
    policy and the sensing session was quarantined: ``hints`` is then the
    (possibly empty) partial stream and ``failure`` names the failing
    phase/step — the protocols still have the channel trace to carry
    traffic over, exactly the advisory-hints contract.
    """

    trajectory: "TrajectoryTrace"
    trace: "ChannelTrace"
    hints: List[MobilityEstimate]
    truths: List[GroundTruth]
    failure: Optional[FailureRecord] = None


def sense_and_classify(
    scenario: MobilityScenario,
    ap: Point,
    duration_s: float = 60.0,
    dt_s: float = 0.05,
    channel_config: ChannelConfig = ChannelConfig(),
    classifier_config: ClassifierConfig = ClassifierConfig(),
    tof_config: ToFConfig = ToFConfig(),
    seed: SeedLike = None,
    recorder: Recorder = NULL_RECORDER,
    faults: Optional[FaultPlan] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> SensedLink:
    """Evaluate one link end to end and run the classifier over it.

    Returns the *fine-grained* channel trace (for protocol simulation) and
    the stream of mobility estimates the serving AP produced — exactly what
    the mobility-aware protocols consume as hints.

    ``faults`` degrades the classifier's ToF/CSI input (drop, duplicate,
    delay, NaN — see :mod:`repro.faults`) without touching the channel
    trace the protocols transmit over: the link is fine, the *sensing* is
    impaired, which is the realistic failure mode (observables ride on the
    client's existing traffic).  ``supervisor`` selects the engine failure
    policy; under ``isolate``/``retry`` a crashing sensing pipeline yields
    partial hints plus :attr:`SensedLink.failure` instead of raising.
    """
    rng = ensure_rng(seed)
    channel_rng, csi_rng, tof_rng = spawn_rngs(rng, 3)
    trajectory = scenario.sample(duration_s, dt_s)
    link = LinkChannel(ap, channel_config, environment=scenario.environment, seed=channel_rng)
    trace = link.evaluate(trajectory.times, trajectory.positions, include_h=True)
    measured = trace.measured_csi(csi_rng)

    # ToF runs at its own cadence (paper: 20 ms).  If the trajectory grid is
    # coarser, sample at the grid cadence and tell the trend detector so its
    # per-second median batches stay one second long.
    fine_grid = TimeGrid(trace.times, fallback_dt_s=dt_s)
    tof_period_s = tof_config_interval(classifier_config)
    if tof_period_s < fine_grid.dt_s:
        # Deliberate sub-grid cadence: sample ToF at the grid cadence and
        # stretch the configured interval below, so the trend detector
        # still sees correctly-sized per-second median batches.
        tof_stride = 1
    else:
        tof_stride = fine_grid.stride_for(
            tof_period_s, strict=False, name="tof sample_interval_s"
        )
    effective_interval = tof_stride * dt_s
    if abs(effective_interval - classifier_config.tof.sample_interval_s) > 1e-9:
        classifier_config = replace(
            classifier_config,
            tof=replace(classifier_config.tof, sample_interval_s=effective_interval),
        )
    tof_times = trajectory.times[::tof_stride]
    distances = trajectory.distances_to(ap)[::tof_stride]
    tof_readings = ToFSampler(tof_config, seed=tof_rng).sample(distances)

    csi_stride = fine_grid.stride_for(
        classifier_config.csi_sampling_period_s, strict=False, name="csi_sampling_period_s"
    )
    session = BatchedSensingSession(
        BatchedMobilityClassifier([LINK_LABEL], classifier_config),
        [measured[::csi_stride]],
        [tof_times],
        [tof_readings],
        client=LINK_LABEL,
        faults=None if faults is None else {LINK_LABEL: faults},
    )
    engine = SimulationEngine(
        TimeGrid(trace.times[::csi_stride]), recorder=recorder, supervisor=supervisor
    )
    engine.add(session)
    result = engine.run()[LINK_LABEL]
    truths = scenario.ground_truth(trajectory, ap)
    if isinstance(result, FailureRecord):
        # Quarantined pipeline: partial hints, structured failure attached.
        return SensedLink(
            trajectory=trajectory,
            trace=trace,
            hints=list(session.estimates_by_client[0]),
            truths=truths,
            failure=result,
        )
    return SensedLink(trajectory=trajectory, trace=trace, hints=result, truths=truths)
