"""2-D geometry helpers for floorplans, trajectories and AP placement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Point:
    """A 2-D point in metres.  Immutable so it can be freely shared."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Point":
        return Point(self.x * factor, self.y * factor)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points, in metres."""
    return math.hypot(a.x - b.x, a.y - b.y)


def heading_between(a: Point, b: Point) -> float:
    """Heading (radians, from +x axis, counter-clockwise) of travel a -> b."""
    return math.atan2(b.y - a.y, b.x - a.x)
