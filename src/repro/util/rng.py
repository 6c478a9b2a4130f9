"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  Experiments stay reproducible because each
subsystem derives independent child generators from a single root seed instead
of sharing one mutable generator across unrelated code paths.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh OS entropy), an ``int`` seed, or an
    existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from ``seed``.

    Draws ``count`` 63-bit integer seeds from the parent generator and
    seeds one fresh generator with each (not the SeedSequence spawning
    protocol).  Distinct seeds give practically independent streams; every
    seeded golden depends on this exact derivation, so it must not change.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = ensure_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def stable_seed(*parts: Union[int, str]) -> int:
    """Build a deterministic 63-bit seed from a mix of ints and strings.

    Useful for naming experiment repetitions (e.g. ``stable_seed("fig7",
    link_index, "macro")``) so that re-running a single repetition
    reproduces exactly the same trace.
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        else:
            data = int(part).to_bytes(16, "little", signed=True)
        for byte in data:
            acc ^= byte
            acc = (acc * 0x100000001B3) % (2**64)
    return acc % (2**63 - 1)
