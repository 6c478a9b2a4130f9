"""Terminal plots for experiment reports: ASCII CDFs and bar rows.

The paper's evaluation is almost entirely CDFs; a quick visual check of
shapes (separation, crossovers) is often worth more than a percentile
table.  These renderers have no dependencies and fixed-width output, so
they are safe to embed in benchmark reports and CI logs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.util.stats import EmpiricalCDF

#: Characters used to distinguish series in one chart.
SERIES_MARKERS = "ox+*#@%&"


def render_cdf(
    cdfs: Dict[str, EmpiricalCDF],
    title: str = "",
    width: int = 64,
    height: int = 16,
) -> str:
    """Render named CDFs as one ASCII chart.

    The x axis spans the pooled data range; the y axis is cumulative
    probability 0..1.  Each series uses its own marker, listed in the
    legend below the chart.
    """
    if not cdfs:
        raise ValueError("need at least one CDF")
    if width < 16 or height < 4:
        raise ValueError("chart too small to be readable")
    pooled = np.concatenate([np.asarray(c.samples, dtype=float) for c in cdfs.values()])
    if pooled.size == 0:
        raise ValueError("all CDFs are empty")
    x_min, x_max = float(np.min(pooled)), float(np.max(pooled))
    if x_max - x_min < 1e-12:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for series_index, (name, cdf) in enumerate(cdfs.items()):
        marker = SERIES_MARKERS[series_index % len(SERIES_MARKERS)]
        data = np.sort(np.asarray(cdf.samples, dtype=float))
        n = len(data)
        for column in range(width):
            x = x_min + (x_max - x_min) * column / (width - 1)
            probability = float(np.searchsorted(data, x, side="right") / n)
            row = height - 1 - int(round(probability * (height - 1)))
            if grid[row][column] == " ":
                grid[row][column] = marker

    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        probability = 1.0 - row_index / (height - 1)
        label = f"{probability:4.2f} |" if row_index % (height // 4 or 1) == 0 else "     |"
        lines.append(label + "".join(row))
    lines.append("     +" + "-" * width)
    left = f"{x_min:.3g}"
    right = f"{x_max:.3g}"
    lines.append("      " + left + " " * max(1, width - len(left) - len(right)) + right)
    legend = "   ".join(
        f"{SERIES_MARKERS[i % len(SERIES_MARKERS)]} {name}"
        for i, name in enumerate(cdfs)
    )
    lines.append("      " + legend)
    return "\n".join(lines)


def render_bars(
    values: Dict[str, float],
    title: str = "",
    width: int = 48,
    unit: str = "",
) -> str:
    """Render a labelled horizontal bar chart (one row per entry)."""
    if not values:
        raise ValueError("need at least one value")
    maximum = max(values.values())
    if maximum <= 0:
        maximum = 1.0
    label_width = max(len(name) for name in values)
    lines = [title] if title else []
    for name, value in values.items():
        bar = "#" * max(1, int(round(width * value / maximum))) if value > 0 else ""
        lines.append(f"{name:<{label_width}}  {bar} {value:.1f}{unit}")
    return "\n".join(lines)
