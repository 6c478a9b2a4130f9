"""Shared utilities: RNG handling, streaming filters, statistics, units, geometry.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing here is specific to the paper; it is the
plumbing a production networking library needs.
"""

from repro.util.filters import (
    ExponentialMovingAverage,
    MedianFilter,
    MovingWindow,
    SlidingStatistics,
)
from repro.util.geometry import Point, distance, heading_between
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.stats import EmpiricalCDF
from repro.util.units import SPEED_OF_LIGHT

__all__ = [
    "EmpiricalCDF",
    "ExponentialMovingAverage",
    "MedianFilter",
    "MovingWindow",
    "Point",
    "SPEED_OF_LIGHT",
    "SlidingStatistics",
    "distance",
    "ensure_rng",
    "heading_between",
    "spawn_rngs",
]
