"""Unit tests for the CSI similarity metric (Eq. 1)."""

import numpy as np
import pytest

from repro.core.similarity import csi_similarity, csi_similarity_series


def _random_csi(rng, k=52, t=3, r=2):
    return rng.standard_normal((k, t, r)) + 1j * rng.standard_normal((k, t, r))


class TestSimilarity:
    def test_identical_samples(self):
        rng = np.random.default_rng(0)
        csi = _random_csi(rng)
        assert csi_similarity(csi, csi) == pytest.approx(1.0)

    def test_scale_invariance(self):
        """A common gain change (AGC, body blockage) does not alter Eq. 1."""
        rng = np.random.default_rng(1)
        csi = _random_csi(rng)
        assert csi_similarity(csi, 7.3 * csi) == pytest.approx(1.0)

    def test_phase_invariance(self):
        """Common phase rotation (CFO) is removed by taking magnitudes."""
        rng = np.random.default_rng(2)
        csi = _random_csi(rng)
        rotated = csi * np.exp(1j * 1.234)
        assert csi_similarity(csi, rotated) == pytest.approx(1.0)

    def test_independent_samples_low_similarity(self):
        rng = np.random.default_rng(3)
        values = [
            csi_similarity(_random_csi(rng), _random_csi(rng)) for _ in range(50)
        ]
        assert abs(np.mean(values)) < 0.2

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = csi_similarity(_random_csi(rng), _random_csi(rng))
            assert -1.0 <= s <= 1.0

    def test_anticorrelated_vectors(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([4.0, 3.0, 2.0, 1.0])
        assert csi_similarity(a, b) == pytest.approx(-1.0)

    def test_1d_matches_manual_pearson(self):
        rng = np.random.default_rng(5)
        a = np.abs(rng.standard_normal(52)) + 0.1
        b = np.abs(rng.standard_normal(52)) + 0.1
        expected = np.corrcoef(a, b)[0, 1]
        assert csi_similarity(a, b) == pytest.approx(expected)

    def test_flat_profiles_treated_as_identical(self):
        flat = np.ones(52)
        assert csi_similarity(flat, 2 * flat) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            csi_similarity(np.ones(52), np.ones(50))

    def test_bad_ndim_rejected_with_reshape_hint(self):
        with pytest.raises(ValueError, match=r"reshape.*\(K, -1\)"):
            csi_similarity(np.ones((2, 2, 2, 2)), np.ones((2, 2, 2, 2)))

    def test_two_d_matches_three_d(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        b = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        flat = csi_similarity(a.reshape(16, -1), b.reshape(16, -1))
        assert flat == pytest.approx(csi_similarity(a, b))

    def test_two_d_single_pair_matches_one_d(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        assert csi_similarity(a[:, None], b[:, None]) == pytest.approx(csi_similarity(a, b))

    def test_two_d_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            csi_similarity(np.ones((4, 0)), np.ones((4, 0)))


class TestStreamAndSeries:
    def test_series_matches_pairwise(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((6, 52, 3, 2)) + 1j * rng.standard_normal((6, 52, 3, 2))
        series = csi_similarity_series(h, lag=2)
        assert len(series) == 4
        manual = csi_similarity(h[0], h[2])
        assert series[0] == pytest.approx(manual)

    def test_series_short_trace(self):
        h = np.ones((2, 52, 1, 1), dtype=complex)
        series = csi_similarity_series(h, lag=5)
        assert series.shape == (0,)  # documented: same 1-D shape as results
        assert len(np.concatenate([series, np.ones(3)])) == 3

    def test_series_invalid_lag(self):
        h = np.ones((4, 52, 1, 1), dtype=complex)
        with pytest.raises(ValueError):
            csi_similarity_series(h, lag=0)

    def test_walking_decorrelates_faster_than_static(self, static_trace, walking_trace):
        lag = 10
        static = np.mean(csi_similarity_series(static_trace.h, lag=lag))
        walking = np.mean(csi_similarity_series(walking_trace.h, lag=lag))
        assert static > 0.97
        assert walking < 0.7
