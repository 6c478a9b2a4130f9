"""Statistics helpers: empirical CDFs and summary tables.

Nearly every figure in the paper is a CDF; :class:`EmpiricalCDF` is the
common currency between ``repro.experiments`` and the benchmark printers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np


@dataclass
class EmpiricalCDF:
    """Empirical cumulative distribution of a finite sample."""

    samples: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.samples = [float(s) for s in self.samples]

    def add(self, sample: float) -> None:
        self.samples.append(float(sample))

    def extend(self, samples: Iterable[float]) -> None:
        for sample in samples:
            self.add(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def evaluate(self, x: float) -> float:
        """P(X <= x) under the empirical distribution."""
        if not self.samples:
            raise ValueError("empty CDF")
        data = np.sort(self.samples)
        return float(np.searchsorted(data, x, side="right") / len(data))

    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100])."""
        if not self.samples:
            raise ValueError("empty CDF")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        return float(np.percentile(self.samples, q))

    def median(self) -> float:
        return self.percentile(50.0)

    def mean(self) -> float:
        if not self.samples:
            raise ValueError("empty CDF")
        return float(np.mean(self.samples))

    def curve(self, points: int = 100) -> List[tuple]:
        """(value, cumulative probability) pairs for plotting/printing."""
        if not self.samples:
            raise ValueError("empty CDF")
        data = np.sort(self.samples)
        n = len(data)
        if points >= n:
            return [(float(v), (i + 1) / n) for i, v in enumerate(data)]
        idx = np.linspace(0, n - 1, points).astype(int)
        return [(float(data[i]), (i + 1) / n) for i in idx]


def format_cdf_rows(cdfs: Dict[str, EmpiricalCDF], header: str) -> str:
    """Render named CDFs as an aligned text table (median / p25 / p75 / mean)."""
    lines = [header, f"{'series':<34}{'p25':>10}{'median':>10}{'p75':>10}{'mean':>10}"]
    for name, cdf in cdfs.items():
        lines.append(
            f"{name:<34}{cdf.percentile(25):>10.3f}{cdf.median():>10.3f}"
            f"{cdf.percentile(75):>10.3f}{cdf.mean():>10.3f}"
        )
    return "\n".join(lines)
