"""Integration tests: full sensing -> classification -> protocol pipelines."""

import numpy as np

from repro.experiments.common import (
    classification_decisions,
    run_classification,
    sense_and_classify,
    standard_client_positions,
)
from repro.mobility.environment import EnvironmentActivity
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.scenarios import (
    circular_scenario,
    environmental_scenario,
    macro_scenario,
    micro_scenario,
    static_scenario,
)
from repro.util.geometry import Point

AP = Point(0.0, 0.0)
CLIENT = Point(12.0, 6.0)


class TestClassificationPipeline:
    """End-to-end: trajectory -> channel -> CSI/ToF -> classifier -> score."""

    def test_static_client_classified_static(self):
        outcome = classification_decisions(
            static_scenario(CLIENT), AP, duration_s=40.0, grace_s=5.0, seed=1
        )
        assert outcome.mode_accuracy() > 0.9

    def test_environmental_client(self):
        outcome = classification_decisions(
            environmental_scenario(CLIENT, EnvironmentActivity.STRONG),
            AP,
            duration_s=40.0,
            grace_s=5.0,
            seed=2,
        )
        assert outcome.mode_accuracy() > 0.75

    def test_micro_client(self):
        outcome = classification_decisions(
            micro_scenario(CLIENT, seed=3), AP, duration_s=40.0, grace_s=5.0, seed=3
        )
        assert outcome.mode_accuracy() > 0.8

    def test_macro_client_with_heading(self):
        scenario = macro_scenario(CLIENT, anchor=AP, approach_retreat=True, seed=4)
        outcome = classification_decisions(
            scenario, AP, duration_s=80.0, grace_s=6.5, seed=4
        )
        assert outcome.accuracy() > 0.75
        macro_estimates = [
            est for est, _ in outcome.decisions if est.mode == MobilityMode.MACRO
        ]
        headings = {est.heading for est in macro_estimates}
        assert Heading.TOWARDS in headings and Heading.AWAY in headings

    def test_circular_walk_misclassified_as_micro(self):
        """The Section-9 limitation must reproduce, not silently vanish."""
        outcome = classification_decisions(
            circular_scenario(AP, radius=10.0), AP, duration_s=40.0, grace_s=5.0, seed=5
        )
        micro_fraction = np.mean(
            [est.mode == MobilityMode.MICRO for est, _ in outcome.decisions]
        )
        assert micro_fraction > 0.7

    def test_confusion_matrix_batch(self):
        scenarios = [
            static_scenario(CLIENT),
            micro_scenario(CLIENT, seed=6),
        ]
        matrix = run_classification(scenarios, AP, duration_s=30.0, seed=6)
        assert matrix.accuracy(MobilityMode.STATIC) > 0.85
        assert matrix.accuracy(MobilityMode.MICRO) > 0.7

    def test_standard_positions_respect_bounds(self):
        points = standard_client_positions(20, AP, min_distance_m=5.0, max_distance_m=20.0, seed=7)
        for p in points:
            d = np.hypot(p.x, p.y)
            assert 5.0 <= d <= 20.0


class TestSenseAndClassify:
    def test_returns_aligned_artifacts(self):
        scenario = micro_scenario(CLIENT, seed=8)
        sensed = sense_and_classify(scenario, AP, duration_s=20.0, seed=8)
        assert sensed.trace.h is not None
        assert len(sensed.truths) == len(sensed.trajectory)
        assert len(sensed.hints) > 10
        times = [h.time_s for h in sensed.hints]
        assert times == sorted(times)

    def test_hint_modes_match_scenario(self):
        scenario = micro_scenario(CLIENT, seed=9)
        sensed = sense_and_classify(scenario, AP, duration_s=30.0, seed=9)
        settled = [h for h in sensed.hints if h.time_s > 8.0]
        micro_fraction = np.mean([h.mode == MobilityMode.MICRO for h in settled])
        assert micro_fraction > 0.7

    def test_coarse_grid_adjusts_tof_cadence(self):
        scenario = macro_scenario(CLIENT, anchor=AP, approach_retreat=True, seed=10)
        sensed = sense_and_classify(scenario, AP, duration_s=40.0, dt_s=0.05, seed=10)
        macro_fraction = np.mean(
            [h.mode == MobilityMode.MACRO for h in sensed.hints if h.time_s > 10.0]
        )
        # Even on a 50 ms grid the trend detector must fire.
        assert macro_fraction > 0.4
