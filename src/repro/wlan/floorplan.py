"""Floorplans: AP placement over an office area.

The paper's overall evaluation (Fig. 13(a)) uses 6 HP APs spread over an
office floor with a walking trajectory weaving between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.util.geometry import Point, distance
from repro.util.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Floorplan:
    """An office area with fixed AP positions."""

    ap_positions: Tuple[Point, ...]
    bounds: Tuple[float, float, float, float] = (0.0, 0.0, 40.0, 25.0)

    def __post_init__(self) -> None:
        if len(self.ap_positions) < 1:
            raise ValueError("a floorplan needs at least one AP")
        x_min, y_min, x_max, y_max = self.bounds
        if x_min >= x_max or y_min >= y_max:
            raise ValueError("floorplan bounds are degenerate")

    @property
    def n_aps(self) -> int:
        return len(self.ap_positions)

    def nearest_ap(self, point: Point) -> int:
        """Index of the AP closest to ``point``."""
        return min(
            range(self.n_aps), key=lambda i: distance(self.ap_positions[i], point)
        )

    def random_client_position(self, rng: SeedLike = None, margin: float = 1.0) -> Point:
        """A uniform random client position inside the floor."""
        generator = ensure_rng(rng)
        x_min, y_min, x_max, y_max = self.bounds
        return Point(
            float(generator.uniform(x_min + margin, x_max - margin)),
            float(generator.uniform(y_min + margin, y_max - margin)),
        )


def default_office_floorplan() -> Floorplan:
    """Six APs over a 40 m x 25 m office floor (Fig. 13(a) style)."""
    return Floorplan(
        ap_positions=(
            Point(7.0, 6.0),
            Point(20.0, 6.0),
            Point(33.0, 6.0),
            Point(7.0, 19.0),
            Point(20.0, 19.0),
            Point(33.0, 19.0),
        ),
        bounds=(0.0, 0.0, 40.0, 25.0),
    )


def grid_floorplan(
    nx: int = 4, ny: int = 2, spacing_m: float = 18.0, margin_m: float = 6.0
) -> Floorplan:
    """``nx x ny`` APs on a regular grid — enterprise-scale deployments.

    The controller experiments need more cells than the six-AP office
    floor; a grid with ``spacing_m`` between neighbouring APs and
    ``margin_m`` of floor beyond the outer APs gives an arbitrary-size
    deployment with uniform cell geometry.
    """
    if nx < 1 or ny < 1:
        raise ValueError("need at least a 1x1 AP grid")
    if spacing_m <= 0 or margin_m <= 0:
        raise ValueError("spacing_m and margin_m must be positive")
    positions = tuple(
        Point(margin_m + i * spacing_m, margin_m + j * spacing_m)
        for j in range(ny)
        for i in range(nx)
    )
    return Floorplan(
        ap_positions=positions,
        bounds=(
            0.0,
            0.0,
            2 * margin_m + (nx - 1) * spacing_m,
            2 * margin_m + (ny - 1) * spacing_m,
        ),
    )
