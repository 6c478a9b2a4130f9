"""Trajectory generators for the four mobility classes.

Each generator produces a :class:`TrajectoryTrace`: positions and velocities
sampled on a regular time grid.  The channel simulator consumes positions (to
evolve multipath delays/phases and path loss) while the ToF model consumes
AP-client distances.

The shapes follow the paper's experimental setup (Section 2.1):

* *static*: the phone rests on a table;
* *micro*: "picked up the phone and moved it around within a meter of its
  location, using natural gestures";
* *macro*: "walked naturally with the phone in hand or inside the pocket" —
  straight segments between turns at ~1-1.4 m/s;
* *circular*: the Section-9 limitation case, constant distance from the AP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.util.geometry import Point
from repro.util.rng import SeedLike, ensure_rng


@dataclass
class TrajectoryTrace:
    """Positions/velocities of the client device on a regular time grid."""

    times: np.ndarray  # shape (N,), seconds
    positions: np.ndarray  # shape (N, 2), metres
    velocities: np.ndarray  # shape (N, 2), metres/second

    def __post_init__(self) -> None:
        n = len(self.times)
        if self.positions.shape != (n, 2) or self.velocities.shape != (n, 2):
            raise ValueError("times/positions/velocities shapes disagree")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        if len(self.times) < 2:
            raise ValueError("trace too short to have a time step")
        return float(self.times[1] - self.times[0])

    def position_at(self, index: int) -> Point:
        return Point(float(self.positions[index, 0]), float(self.positions[index, 1]))

    def distances_to(self, anchor: Point) -> np.ndarray:
        """Distance from every trace point to ``anchor`` (metres)."""
        dx = self.positions[:, 0] - anchor.x
        dy = self.positions[:, 1] - anchor.y
        return np.hypot(dx, dy)

    def speeds(self) -> np.ndarray:
        """Instantaneous speed magnitude at every point (m/s)."""
        return np.hypot(self.velocities[:, 0], self.velocities[:, 1])

    def total_displacement(self) -> float:
        """Straight-line distance between first and last position."""
        return float(
            math.hypot(
                self.positions[-1, 0] - self.positions[0, 0],
                self.positions[-1, 1] - self.positions[0, 1],
            )
        )


def _velocities_from_positions(positions: np.ndarray, dt: float) -> np.ndarray:
    """Central-difference velocity estimate matching ``positions``."""
    velocities = np.gradient(positions, dt, axis=0)
    return velocities


class Trajectory:
    """Base class: a stochastic recipe that can be sampled into a trace."""

    def sample(self, duration_s: float, dt_s: float) -> TrajectoryTrace:
        raise NotImplementedError

    @staticmethod
    def _time_grid(duration_s: float, dt_s: float) -> np.ndarray:
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("duration and dt must be positive")
        steps = int(round(duration_s / dt_s))
        if steps < 1:
            raise ValueError("duration shorter than one time step")
        return np.arange(steps) * dt_s


class StaticTrajectory(Trajectory):
    """Device resting at a fixed point (static & environmental modes)."""

    def __init__(self, origin: Point) -> None:
        self.origin = origin

    def sample(self, duration_s: float, dt_s: float) -> TrajectoryTrace:
        times = self._time_grid(duration_s, dt_s)
        positions = np.tile([self.origin.x, self.origin.y], (len(times), 1))
        velocities = np.zeros_like(positions)
        return TrajectoryTrace(times, positions, velocities)


class MicroJitterTrajectory(Trajectory):
    """Confined natural-gesture motion within ``radius`` of the origin.

    Modelled as a mean-reverting (Ornstein-Uhlenbeck) walk with intermittent
    gesture bursts: the user alternates short active periods (device moving
    at hand-gesture speeds) and brief holds, without net displacement.
    """

    def __init__(
        self,
        origin: Point,
        radius: float = 0.5,
        gesture_speed: float = 0.6,
        burst_duration_s: float = 2.5,
        hold_duration_s: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if gesture_speed <= 0:
            raise ValueError(f"gesture_speed must be positive, got {gesture_speed}")
        self.origin = origin
        self.radius = radius
        self.gesture_speed = gesture_speed
        self.burst_duration_s = burst_duration_s
        self.hold_duration_s = hold_duration_s
        self._rng = ensure_rng(seed)

    def sample(self, duration_s: float, dt_s: float) -> TrajectoryTrace:
        times = self._time_grid(duration_s, dt_s)
        n = len(times)
        positions = np.empty((n, 2))
        offset = np.zeros(2)
        reversion = 1.2  # 1/s pull back toward the origin
        active = True
        phase_left = self._rng.exponential(self.burst_duration_s)
        for i in range(n):
            positions[i] = (self.origin.x + offset[0], self.origin.y + offset[1])
            phase_left -= dt_s
            if phase_left <= 0.0:
                active = not active
                mean = self.burst_duration_s if active else self.hold_duration_s
                phase_left = self._rng.exponential(mean)
            if active:
                kick = self._rng.normal(0.0, self.gesture_speed * math.sqrt(dt_s), size=2)
                offset = offset * (1.0 - reversion * dt_s) + kick
            norm = float(np.hypot(offset[0], offset[1]))
            if norm > self.radius:
                offset *= self.radius / norm
        velocities = _velocities_from_positions(positions, dt_s)
        return TrajectoryTrace(times, positions, velocities)


class WaypointWalkTrajectory(Trajectory):
    """Natural walking: straight segments between random turns.

    Matches the paper's observation (Section 2.4) that "during macro-mobility
    a user typically walks a reasonable distance between two physical turns",
    which is what makes ToF trends monotone over a few-second window.
    """

    def __init__(
        self,
        start: Point,
        area: Sequence[float] = (0.0, 0.0, 40.0, 25.0),
        speed: float = 1.2,
        speed_jitter: float = 0.15,
        min_segment_m: float = 6.0,
        max_segment_m: float = 18.0,
        pause_probability: float = 0.1,
        pause_duration_s: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        if min_segment_m <= 0 or max_segment_m < min_segment_m:
            raise ValueError("segment bounds must satisfy 0 < min <= max")
        self.start = start
        self.area = tuple(area)
        self.speed = speed
        self.speed_jitter = speed_jitter
        self.min_segment_m = min_segment_m
        self.max_segment_m = max_segment_m
        self.pause_probability = pause_probability
        self.pause_duration_s = pause_duration_s
        self._rng = ensure_rng(seed)

    def _pick_waypoint(self, current: np.ndarray) -> np.ndarray:
        """Pick the next turn point: a reasonable straight walk inside the area."""
        x_min, y_min, x_max, y_max = self.area
        for _ in range(64):
            heading = self._rng.uniform(0.0, 2.0 * math.pi)
            length = self._rng.uniform(self.min_segment_m, self.max_segment_m)
            candidate = current + length * np.array([math.cos(heading), math.sin(heading)])
            if x_min <= candidate[0] <= x_max and y_min <= candidate[1] <= y_max:
                return candidate
        # Degenerate area (e.g. start near a corner of a tiny rectangle):
        # walk toward the centre instead of spinning forever.
        centre = np.array([(x_min + x_max) / 2.0, (y_min + y_max) / 2.0])
        return centre

    def sample(self, duration_s: float, dt_s: float) -> TrajectoryTrace:
        times = self._time_grid(duration_s, dt_s)
        n = len(times)
        positions = np.empty((n, 2))
        current = np.array([self.start.x, self.start.y], dtype=float)
        target = self._pick_waypoint(current)
        pause_left = 0.0
        for i in range(n):
            positions[i] = current
            if pause_left > 0.0:
                pause_left -= dt_s
                continue
            direction = target - current
            remaining = float(np.hypot(direction[0], direction[1]))
            step_speed = self.speed * (1.0 + self._rng.normal(0.0, self.speed_jitter))
            step_speed = max(step_speed, 0.2)
            step = step_speed * dt_s
            if remaining <= step:
                current = target.copy()
                target = self._pick_waypoint(current)
                if self._rng.random() < self.pause_probability:
                    pause_left = self._rng.exponential(self.pause_duration_s)
            else:
                current = current + direction / remaining * step
        velocities = _velocities_from_positions(positions, dt_s)
        return TrajectoryTrace(times, positions, velocities)


class ApproachRetreatTrajectory(Trajectory):
    """Walk directly towards the anchor AP, then away, periodically.

    This is the macro-mobility scenario of Fig. 4 ("the user walks towards
    and away from the AP periodically") and the towards/away traces of
    Fig. 8(b).  ``start_towards`` selects the first leg's direction.
    """

    def __init__(
        self,
        anchor: Point,
        start: Point,
        leg_duration_s: float = 15.0,
        speed: float = 1.2,
        min_distance_m: float = 2.0,
        max_distance_m: float = 40.0,
        start_towards: bool = True,
        seed: SeedLike = None,
    ) -> None:
        if leg_duration_s <= 0 or speed <= 0:
            raise ValueError("leg duration and speed must be positive")
        if min_distance_m <= 0 or max_distance_m <= min_distance_m:
            raise ValueError("distance bounds must satisfy 0 < min < max")
        self.anchor = anchor
        self.start = start
        self.leg_duration_s = leg_duration_s
        self.speed = speed
        self.min_distance_m = min_distance_m
        self.max_distance_m = max_distance_m
        self.start_towards = start_towards
        self._rng = ensure_rng(seed)

    def sample(self, duration_s: float, dt_s: float) -> TrajectoryTrace:
        times = self._time_grid(duration_s, dt_s)
        n = len(times)
        positions = np.empty((n, 2))
        anchor = np.array([self.anchor.x, self.anchor.y])
        current = np.array([self.start.x, self.start.y], dtype=float)
        towards = self.start_towards
        leg_left = self.leg_duration_s
        for i in range(n):
            positions[i] = current
            leg_left -= dt_s
            if leg_left <= 0.0:
                towards = not towards
                leg_left = self.leg_duration_s
            radial = current - anchor
            dist = float(np.hypot(radial[0], radial[1]))
            if dist == 0.0:
                unit = np.array([1.0, 0.0])
                dist = 1e-9
            else:
                unit = radial / dist
            step = self.speed * dt_s * (1.0 + self._rng.normal(0.0, 0.1))
            if towards:
                current = current - unit * step
                if float(np.hypot(*(current - anchor))) < self.min_distance_m:
                    towards = False
                    leg_left = self.leg_duration_s
            else:
                current = current + unit * step
                if float(np.hypot(*(current - anchor))) > self.max_distance_m:
                    towards = True
                    leg_left = self.leg_duration_s
        velocities = _velocities_from_positions(positions, dt_s)
        return TrajectoryTrace(times, positions, velocities)


class CircularTrajectory(Trajectory):
    """Constant-radius walk around a centre point (the Section-9 limitation)."""

    def __init__(
        self,
        center: Point,
        radius: float = 8.0,
        speed: float = 1.2,
        start_angle_rad: float = 0.0,
    ) -> None:
        if radius <= 0 or speed <= 0:
            raise ValueError("radius and speed must be positive")
        self.center = center
        self.radius = radius
        self.speed = speed
        self.start_angle_rad = start_angle_rad

    def sample(self, duration_s: float, dt_s: float) -> TrajectoryTrace:
        times = self._time_grid(duration_s, dt_s)
        omega = self.speed / self.radius
        angles = self.start_angle_rad + omega * times
        positions = np.stack(
            [
                self.center.x + self.radius * np.cos(angles),
                self.center.y + self.radius * np.sin(angles),
            ],
            axis=1,
        )
        velocities = _velocities_from_positions(positions, dt_s)
        return TrajectoryTrace(times, positions, velocities)


def concatenate_traces(traces: List[TrajectoryTrace]) -> TrajectoryTrace:
    """Join traces back-to-back on a continuous time axis.

    Used to build mixed-mode sessions (e.g. 5 minutes static, then micro,
    then macro, as in the Section 6.3 trace collection).
    """
    if not traces:
        raise ValueError("need at least one trace")
    dt = traces[0].dt
    for trace in traces:
        if abs(trace.dt - dt) > 1e-12:
            raise ValueError("all traces must share the same time step")
    positions = np.concatenate([t.positions for t in traces], axis=0)
    velocities = np.concatenate([t.velocities for t in traces], axis=0)
    times = np.arange(len(positions)) * dt
    return TrajectoryTrace(times, positions, velocities)
