"""CSI similarity — Equation 1 of the paper.

The similarity between two CSI samples is the sample Pearson correlation of
their per-subcarrier channel gains:

    S(csi_t, csi_{t+tau}) =
        sum_i (csi_t^i - mean(csi_t)) (csi_{t+tau}^i - mean(csi_{t+tau}))
        -----------------------------------------------------------------
        sqrt(sum_i (csi_t^i - mean)^2) * sqrt(sum_i (csi_{t+tau}^i - mean)^2)

``csi^i`` is the *channel gain* of subcarrier ``i`` — the magnitude of the
complex channel estimate.  Magnitudes rather than raw complex values are
used because commodity CSI phase is polluted by carrier/sampling frequency
offsets between unsynchronised transmitter and receiver; the per-subcarrier
gain profile is the stable fingerprint of the multipath structure.

For a MIMO link the similarity is computed per TX-RX antenna pair and
averaged, which matches computing Eq. 1 on the stacked per-pair gains while
being robust to per-chain gain differences.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _pair_similarity(gains_a: np.ndarray, gains_b: np.ndarray) -> float:
    """Pearson correlation of two 1-D gain vectors (Eq. 1)."""
    a = gains_a - gains_a.mean()
    b = gains_b - gains_b.mean()
    denom = float(np.sqrt(np.sum(a * a)) * np.sqrt(np.sum(b * b)))
    if denom <= 1e-15:
        # A perfectly flat gain profile carries no fingerprint; treat two
        # flat profiles as identical (stable channel) rather than dividing
        # by zero.
        return 1.0
    return float(np.sum(a * b) / denom)


def validate_csi_shape(shape: Tuple[int, ...]) -> None:
    """Reject CSI sample shapes Eq. 1 cannot score (see :func:`csi_similarity`)."""
    if len(shape) == 2 and shape[1] == 0:
        raise ValueError("2-D CSI needs at least one antenna-pair column")
    if not 1 <= len(shape) <= 3:
        raise ValueError(
            f"CSI must be 1-D (K,), 2-D (K, n_pairs), or 3-D (K, n_tx, n_rx), got "
            f"shape {shape}; reshape higher-rank input to (K, -1) so each "
            f"column is one antenna pair's per-subcarrier gains"
        )


def prepare_csi_gains(csi: np.ndarray, validate: bool = True) -> np.ndarray:
    """Normalise CSI samples to C-contiguous pair-major gain rows.

    ``csi`` carries a leading batch axis over clients (or just over the
    two samples of one comparison) followed by one sample shape — 1-D
    ``(K,)``, 2-D ``(K, n_pairs)`` or 3-D ``(K, n_tx, n_rx)``.  The
    sample axes are rearranged to ``(N, n_pairs, K)`` float64 with the
    *subcarrier axis contiguous*,
    which is the layout every similarity reduction in this module runs on:
    reducing the last axis of a C-contiguous array is bit-identical to the
    per-pair 1-D reductions of :func:`_pair_similarity`, while reducing a
    transposed view is not (NumPy switches pairwise-summation strategy on
    non-contiguous axes).

    Validation runs once per call here — batched callers prepare a whole
    ``(N, ...)`` slab in one shot instead of re-validating per client —
    and real-valued float64 input skips the historical ``abs().astype``
    copy (``np.abs`` already allocates the output).
    """
    if validate:
        validate_csi_shape(csi.shape[1:])
    gains = np.abs(csi)  # float64 and complex inputs come out float64 here
    if gains.dtype != np.float64:
        gains = gains.astype(float)
    if gains.ndim == 2:  # (N, K)
        return np.ascontiguousarray(gains[:, None, :])
    if gains.ndim == 3:  # (N, K, n_pairs)
        return np.ascontiguousarray(np.swapaxes(gains, 1, 2))
    # (N, K, n_tx, n_rx) -> (N, n_tx * n_rx, K), pair order (t, r) matching
    # the scalar double loop.
    n, k, n_tx, n_rx = gains.shape
    moved = np.moveaxis(gains, 1, 3)  # (N, n_tx, n_rx, K)
    return np.ascontiguousarray(moved.reshape(n, n_tx * n_rx, k))


def batched_pair_similarity(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Eq. 1 over C-contiguous ``(..., n_pairs, K)`` gain rows, vectorised.

    Returns per-sample similarity ``(...,)`` — the per-pair correlations
    averaged over the pair axis, bit-identical to looping
    :func:`_pair_similarity` per pair and ``np.mean`` over the results
    (both reduce contiguous last axes with the same pairwise summation).
    """
    a = rows_a - rows_a.mean(axis=-1, keepdims=True)
    b = rows_b - rows_b.mean(axis=-1, keepdims=True)
    denom = np.sqrt(np.sum(a * a, axis=-1)) * np.sqrt(np.sum(b * b, axis=-1))
    num = np.sum(a * b, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_pair = np.where(denom > 1e-15, num / denom, 1.0)
    return per_pair.mean(axis=-1)


def csi_similarity(csi_a: np.ndarray, csi_b: np.ndarray) -> float:
    """Similarity of two CSI samples (paper Eq. 1), in [-1, 1].

    Accepts 1-D per-subcarrier vectors, 2-D ``(K, n_pairs)`` per-pair gain
    matrices (one column per flattened TX-RX antenna pair), or 3-D
    ``(K, n_tx, n_rx)`` matrices; complex input is reduced to channel
    gains with ``abs``.  Multi-pair input is scored per pair and averaged,
    matching the MIMO treatment described in the module docstring.
    """
    csi_a = np.asarray(csi_a)
    csi_b = np.asarray(csi_b)
    if csi_a.shape != csi_b.shape:
        raise ValueError(f"CSI shapes disagree: {csi_a.shape} vs {csi_b.shape}")
    rows_a = prepare_csi_gains(csi_a[None, ...])
    rows_b = prepare_csi_gains(csi_b[None, ...], validate=False)
    return float(batched_pair_similarity(rows_a, rows_b)[0])


def csi_similarity_series(h: np.ndarray, lag: int = 1) -> np.ndarray:
    """Vectorised similarity of samples ``lag`` apart in a CSI trace.

    ``h`` is ``(N, K, n_tx, n_rx)``; the result has ``N - lag`` entries
    where entry ``i`` compares samples ``i`` and ``i + lag``.  Used by the
    Fig. 2 sweeps where the same trace is analysed at many sampling periods.

    Traces too short to form any pair (``N <= lag``) return an empty array
    of shape ``(0,)`` — the same 1-D shape as every non-empty result, so
    downstream concatenation and reduction code never special-cases it.
    """
    h = np.asarray(h)
    if h.ndim != 4:
        raise ValueError(f"expected (N, K, n_tx, n_rx), got shape {h.shape}")
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if len(h) <= lag:
        return np.empty((0,))
    gains = np.abs(h).astype(float)
    a = gains[:-lag]
    b = gains[lag:]
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    num = np.sum(a * b, axis=1)
    denom = np.sqrt(np.sum(a * a, axis=1)) * np.sqrt(np.sum(b * b, axis=1))
    per_pair = np.where(denom > 1e-15, num / np.maximum(denom, 1e-15), 1.0)
    return np.mean(per_pair, axis=(1, 2))
