"""Scenario = trajectory + environment + ground-truth labelling.

A scenario couples the device trajectory with the environment process and
knows how to label every instant with the true :class:`MobilityMode` (and,
for macro mobility, the true heading relative to a given AP).  Experiments
score the classifier against these labels (Table 1, Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.mobility.environment import EnvironmentActivity, EnvironmentProcess
from repro.mobility.modes import GroundTruth, Heading, MobilityMode
from repro.mobility.trajectory import (
    ApproachRetreatTrajectory,
    CircularTrajectory,
    MicroJitterTrajectory,
    StaticTrajectory,
    Trajectory,
    TrajectoryTrace,
    WaypointWalkTrajectory,
)
from repro.util.geometry import Point
from repro.util.rng import SeedLike, ensure_rng

#: Radial speeds below this are considered "not changing distance" when
#: labelling macro heading (walking is ~1.2 m/s, so 0.3 m/s splits cleanly).
_HEADING_SPEED_THRESHOLD = 0.3


@dataclass
class MobilityScenario:
    """A labelled mobility experiment."""

    name: str
    mode: MobilityMode
    trajectory: Trajectory
    environment: EnvironmentProcess

    def sample(self, duration_s: float, dt_s: float) -> TrajectoryTrace:
        """Draw one realisation of the device trajectory."""
        return self.trajectory.sample(duration_s, dt_s)

    def ground_truth(self, trace: TrajectoryTrace, anchor: Point) -> List[GroundTruth]:
        """Per-sample true labels for ``trace`` relative to AP ``anchor``.

        For macro mobility the heading label follows the *smoothed* radial
        speed; near turn points (radial speed ~ 0) the heading is NONE and
        Table-1 style scoring treats any heading estimate as acceptable
        there.
        """
        n = len(trace)
        if self.mode != MobilityMode.MACRO:
            return [GroundTruth(self.mode)] * n

        distances = trace.distances_to(anchor)
        dt = trace.dt
        # Smooth over ~1 s so footstep-level jitter does not flip the label;
        # edge-pad so the window never mixes in zeros at the boundaries.
        kernel = max(1, int(round(1.0 / dt)))
        padded = np.concatenate(
            [np.full(kernel, distances[0]), distances, np.full(kernel, distances[-1])]
        )
        smooth = np.convolve(padded, np.ones(kernel) / kernel, mode="same")[kernel:-kernel]
        radial_speed = np.gradient(smooth, dt)
        labels: List[GroundTruth] = []
        for speed in radial_speed:
            if speed > _HEADING_SPEED_THRESHOLD:
                labels.append(GroundTruth(MobilityMode.MACRO, Heading.AWAY))
            elif speed < -_HEADING_SPEED_THRESHOLD:
                labels.append(GroundTruth(MobilityMode.MACRO, Heading.TOWARDS))
            else:
                labels.append(GroundTruth(MobilityMode.MACRO, Heading.NONE))
        return labels


def static_scenario(position: Point, seed: SeedLike = None) -> MobilityScenario:
    """Phone on a table, nobody moving (paper: quiet lab)."""
    del seed  # deterministic trajectory; signature kept uniform
    return MobilityScenario(
        name="static",
        mode=MobilityMode.STATIC,
        trajectory=StaticTrajectory(position),
        environment=EnvironmentProcess.from_activity(EnvironmentActivity.NONE),
    )


def environmental_scenario(
    position: Point,
    activity: EnvironmentActivity = EnvironmentActivity.STRONG,
    seed: SeedLike = None,
) -> MobilityScenario:
    """Phone static on a table in a busy space (paper: cafeteria at lunch)."""
    del seed
    if activity == EnvironmentActivity.NONE:
        raise ValueError("environmental scenario needs WEAK or STRONG activity")
    return MobilityScenario(
        name=f"environmental-{activity.value}",
        mode=MobilityMode.ENVIRONMENTAL,
        trajectory=StaticTrajectory(position),
        environment=EnvironmentProcess.from_activity(activity),
    )


def micro_scenario(
    position: Point,
    radius: float = 0.5,
    seed: SeedLike = None,
) -> MobilityScenario:
    """Natural gestures within ~1 m of the starting location."""
    rng = ensure_rng(seed)
    return MobilityScenario(
        name="micro",
        mode=MobilityMode.MICRO,
        trajectory=MicroJitterTrajectory(position, radius=radius, seed=rng),
        environment=EnvironmentProcess.from_activity(EnvironmentActivity.NONE),
    )


def macro_scenario(
    start: Point,
    anchor: Point = None,
    approach_retreat: bool = False,
    area=(0.0, 0.0, 40.0, 25.0),
    seed: SeedLike = None,
) -> MobilityScenario:
    """Natural walking.

    With ``approach_retreat=True`` the walk alternates direct legs towards
    and away from ``anchor`` (Fig. 4 / Fig. 8(b) style); otherwise it is a
    random waypoint walk across ``area``.
    """
    rng = ensure_rng(seed)
    if approach_retreat:
        if anchor is None:
            raise ValueError("approach_retreat walks need an anchor AP")
        trajectory: Trajectory = ApproachRetreatTrajectory(anchor=anchor, start=start, seed=rng)
    else:
        trajectory = WaypointWalkTrajectory(start=start, area=area, seed=rng)
    return MobilityScenario(
        name="macro",
        mode=MobilityMode.MACRO,
        trajectory=trajectory,
        environment=EnvironmentProcess.from_activity(EnvironmentActivity.NONE),
    )


def circular_scenario(
    center: Point,
    radius: float = 8.0,
    seed: SeedLike = None,
) -> MobilityScenario:
    """Walking on a circle centred on the AP — the known failure case.

    Ground truth is MACRO (the user genuinely walks), but the classifier is
    expected to report MICRO because the AP distance never changes
    (Section 9, "Moving on a circle around the AP").
    """
    del seed
    return MobilityScenario(
        name="circular",
        mode=MobilityMode.MACRO,
        trajectory=CircularTrajectory(center=center, radius=radius),
        environment=EnvironmentProcess.from_activity(EnvironmentActivity.NONE),
    )
