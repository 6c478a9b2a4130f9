"""Ragged rows as ``offsets`` plus concatenated values.

Row ``i`` of a ragged table is ``values[offsets[i]:offsets[i + 1]]``, with
``offsets[0] == 0`` and ``offsets[-1] == len(values)``.  Checkpoints store
per-client lists (queued observations, open median batches) this way, so
the state of a whole fleet is a few flat arrays.
"""

from __future__ import annotations

from typing import Any, Iterable, List

import numpy as np


def ragged_offsets(lengths: Iterable[int]) -> np.ndarray:
    """The ``offsets`` of rows with the given lengths (``int64``)."""
    counts = np.fromiter(lengths, dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def checked_offsets(offsets: Any, n_rows: int, n_values: int) -> List[int]:
    """Restored ``offsets`` as a list, after checking they describe
    ``n_rows`` rows over ``n_values`` values; ``ValueError`` otherwise."""
    bounds = np.asarray(offsets)
    if (
        bounds.shape != (n_rows + 1,)
        or bounds.dtype.kind not in "iu"
        or bounds[0] != 0
        or bounds[-1] != n_values
        or np.any(np.diff(bounds) < 0)
    ):
        raise ValueError("ragged offsets do not fit their values")
    return bounds.tolist()


def split_ragged(offsets: Any, values: Any, n_rows: int) -> List[Any]:
    """The rows of a ragged table (views into ``values``)."""
    bounds = checked_offsets(offsets, n_rows, len(values))
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
