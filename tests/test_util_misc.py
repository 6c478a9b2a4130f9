"""Unit tests for RNG plumbing, units, geometry, stats and special functions."""

import math

import numpy as np
import pytest

from repro.util.geometry import Point, distance, heading_between
from repro.util.rng import ensure_rng, spawn_rngs, stable_seed
from repro.util.special import bessel_j0, jakes_correlation
from repro.util.stats import EmpiricalCDF
from repro.util.units import noise_floor_dbm, wavelength


class TestRng:
    def test_ensure_rng_accepts_int(self):
        a = ensure_rng(7).random()
        b = ensure_rng(7).random()
        assert a == b

    def test_ensure_rng_passes_generator_through(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(3, 4)
        draws = {round(c.random(), 12) for c in children}
        assert len(draws) == 4

    def test_spawn_rngs_deterministic(self):
        a = [c.random() for c in spawn_rngs(5, 3)]
        b = [c.random() for c in spawn_rngs(5, 3)]
        assert a == b

    def test_spawn_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_stable_seed_reproducible_and_distinct(self):
        assert stable_seed("fig7", 3) == stable_seed("fig7", 3)
        assert stable_seed("fig7", 3) != stable_seed("fig7", 4)
        assert stable_seed("a") != stable_seed("b")


class TestUnits:
    def test_noise_floor_scales_with_bandwidth(self):
        narrow = noise_floor_dbm(20e6)
        wide = noise_floor_dbm(40e6)
        assert wide - narrow == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_noise_floor_value(self):
        # -174 + 10log10(40 MHz) + 7 dB NF ~= -91 dBm
        assert noise_floor_dbm(40e6, 7.0) == pytest.approx(-90.98, abs=0.05)

    def test_wavelength_5ghz(self):
        assert wavelength(5.825e9) == pytest.approx(0.05146, abs=1e-4)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            noise_floor_dbm(0.0)


class TestGeometry:
    def test_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_heading(self):
        assert heading_between(Point(0, 0), Point(0, 1)) == pytest.approx(math.pi / 2)

    def test_point_arithmetic(self):
        assert (Point(1, 2) + Point(3, 4)) == Point(4, 6)
        assert (Point(3, 4) - Point(1, 2)) == Point(2, 2)
        assert Point(3, 4).norm() == 5.0


class TestStats:
    def test_cdf_percentiles(self):
        cdf = EmpiricalCDF(list(range(101)))
        assert cdf.median() == 50.0
        assert cdf.percentile(10) == pytest.approx(10.0)

    def test_cdf_evaluate(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(2.0) == 0.5
        assert cdf.evaluate(0.0) == 0.0
        assert cdf.evaluate(10.0) == 1.0

    def test_cdf_curve_is_monotone(self):
        cdf = EmpiricalCDF(np.random.default_rng(0).normal(size=50).tolist())
        curve = cdf.curve(20)
        values = [v for v, _ in curve]
        probs = [p for _, p in curve]
        assert values == sorted(values)
        assert probs == sorted(probs)

    def test_empty_cdf_raises(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([]).median()


class TestBessel:
    def test_j0_known_values(self):
        # Reference values from tables.
        assert bessel_j0(0.0) == pytest.approx(1.0, abs=1e-7)
        assert bessel_j0(1.0) == pytest.approx(0.7651976866, abs=1e-6)
        assert bessel_j0(2.4048) == pytest.approx(0.0, abs=1e-4)  # first zero
        assert bessel_j0(5.0) == pytest.approx(-0.1775967713, abs=1e-6)
        assert bessel_j0(10.0) == pytest.approx(-0.2459357645, abs=1e-6)

    def test_j0_even(self):
        assert bessel_j0(-3.0) == pytest.approx(bessel_j0(3.0))

    def test_j0_vectorised(self):
        x = np.linspace(0, 20, 50)
        values = bessel_j0(x)
        assert values.shape == x.shape
        assert np.all(np.abs(values) <= 1.0 + 1e-9)

    def test_jakes_correlation_clipped(self):
        # J0 is negative around its first zero, but the correlation used
        # for staleness is clipped to [0, 1].
        rho = jakes_correlation(23.0, 0.025)  # x ~ 3.6 -> J0 < 0
        assert rho == 0.0

    def test_jakes_correlation_fresh(self):
        assert jakes_correlation(23.0, 0.0) == pytest.approx(1.0)

    def test_jakes_correlation_monotone_early(self):
        rhos = [float(jakes_correlation(10.0, dt)) for dt in (0.001, 0.005, 0.01, 0.02)]
        assert rhos == sorted(rhos, reverse=True)
