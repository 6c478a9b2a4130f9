"""Smoke/shape tests for the experiment harnesses (reduced sizes).

These check the *shape* of each paper result — who wins, which direction a
curve bends — on small workloads; the full-size runs live in benchmarks/.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig01_rssi,
    fig02_csi,
    fig04_tof,
    fig06_sensitivity,
    fig07_roaming,
    fig08_rate_dynamics,
    fig13_overall,
    table1_classification,
)
from repro.experiments.common import ConfusionMatrix
from repro.mobility.modes import MobilityMode


class TestFig1:
    def test_rssi_cannot_separate_env_from_device(self):
        result = fig01_rssi.run(duration_s=40.0, n_repetitions=2, seed=1)
        static = result.median("static")
        env = result.median("environmental")
        micro = result.median("micro")
        assert env > static * 1.5  # env is clearly noisier than static...
        assert env > micro * 0.25  # ...and overlaps the device-mobility range

    def test_report_formats(self):
        result = fig01_rssi.run(duration_s=20.0, n_repetitions=1, seed=2)
        assert "Fig. 1" in result.format_report()


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig02_csi.run(duration_s=30.0, n_repetitions=1, seed=3)

    def test_thresholds_separate_modes_at_500ms(self, result):
        cdfs = result.cdfs_500ms
        assert cdfs["static"].median() > 0.98
        assert 0.7 < cdfs["environmental-strong"].median() <= 0.99
        assert cdfs["micro"].median() < 0.7
        assert cdfs["macro"].median() < 0.7

    def test_similarity_decays_with_lag(self, result):
        curve = result.similarity_vs_lag["environmental-strong"]
        lags = sorted(curve)
        assert curve[lags[0]] > curve[lags[-1]]

    def test_micro_macro_overlap(self, result):
        """CSI alone cannot split device mobility (the paper's motivation
        for ToF): distributions overlap at every sampling period."""
        for period in (0.05, 0.1, 0.25):
            overlap = result.misclassification_overlap(period)
            assert overlap > 0.05

    def test_static_flat_across_lags(self, result):
        curve = result.similarity_vs_lag["static"]
        assert min(curve.values()) > 0.97


class TestFig4:
    def test_macro_range_exceeds_micro(self):
        result = fig04_tof.run(duration_s=40.0, seed=4)
        assert result.macro_range_cycles > result.micro_range_cycles * 1.5

    def test_micro_stays_within_noise(self):
        result = fig04_tof.run(duration_s=40.0, seed=5)
        assert result.micro_range_cycles < 2.5


class TestTable1:
    def test_all_modes_above_85_percent(self):
        result = table1_classification.run(n_locations=3, duration_s=80.0, seed=6)
        assert result.minimum_accuracy() > 0.85

    def test_heading_accuracy_high(self):
        result = table1_classification.run(n_locations=2, duration_s=80.0, seed=7)
        assert result.heading_accuracy > 0.9

    def test_report_contains_matrix(self):
        result = table1_classification.run(n_locations=2, duration_s=60.0, seed=8)
        report = result.format_report()
        for mode in ("static", "environmental", "micro", "macro"):
            assert mode in report


class TestConfusionMatrix:
    def test_rows_sum_to_one(self):
        matrix = ConfusionMatrix()
        matrix.add(MobilityMode.STATIC, MobilityMode.STATIC, 9)
        matrix.add(MobilityMode.STATIC, MobilityMode.MICRO, 1)
        row = matrix.row(MobilityMode.STATIC)
        assert sum(row.values()) == pytest.approx(1.0)
        assert matrix.accuracy(MobilityMode.STATIC) == pytest.approx(0.9)

    def test_empty_row(self):
        matrix = ConfusionMatrix()
        assert matrix.accuracy(MobilityMode.MACRO) == 0.0


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig06_sensitivity.run(n_locations=1, duration_s=50.0, seed=9)

    def test_csi_accuracy_improves_with_period(self, result):
        sweep = result.csi_sweep
        assert sweep[0.5][0] >= sweep[0.05][0] - 0.05

    def test_tof_accuracy_improves_with_window(self, result):
        sweep = result.tof_sweep
        assert sweep[8][0] >= sweep[2][0]

    def test_false_positives_bounded(self, result):
        for _, fp in result.csi_sweep.values():
            assert fp < 0.25


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_rate_dynamics.run(duration_s=30.0, seed=10)

    def test_static_rates_hold_longer_than_macro(self, result):
        static = result.hold_time_cdfs["static"].mean()
        macro = result.hold_time_cdfs["macro"].mean()
        assert static > macro

    def test_macro_towards_trends_up(self, result):
        series = [m for _, m in result.macro_series["moving-towards"]]
        assert np.mean(series[-20:]) > np.mean(series[:20])

    def test_macro_away_trends_down(self, result):
        series = [m for _, m in result.macro_series["moving-away"]]
        assert np.mean(series[-20:]) < np.mean(series[:20])

    def test_stationary_band_bounded(self, result):
        for series in result.stationary_series.values():
            values = [m for _, m in series]
            assert max(values) - min(values) <= 13  # stays within the table


@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestHarnessesAvoidDeprecatedShims:
    """The roaming and full-stack harnesses build engine sessions directly,
    so they run clean when deprecation warnings are errors."""

    def test_fig7(self):
        result = fig07_roaming.run(n_locations=1, n_walks=1, duration_s=5.0, seed=3)
        assert set(result.scheme_cdfs) == {"default", "sensor-hint", "controller"}
        assert all(len(cdf) == 1 for cdf in result.scheme_cdfs.values())

    def test_fig13(self):
        result = fig13_overall.run(n_tests=1, duration_s=8.0, seed=5)
        assert len(result.per_test) == 1
        assert result.per_test[0]["aware"] > 0.0
