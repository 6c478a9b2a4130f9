"""Unit tests for the Fig. 5 classifier state machine."""

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, MobilityClassifier
from repro.core.hints import MobilityEstimate
from repro.core.policy import default_policy_table, mobility_oblivious_policy
from repro.core.tof_trend import ToFTrendConfig
from repro.mobility.modes import Heading, MobilityMode
from repro.telemetry import TelemetryRecorder


def _flat_csi(level=1.0, k=52, jitter=0.0, rng=None):
    base = np.linspace(1.0, 2.0, k) * level
    if jitter and rng is not None:
        base = base + rng.normal(0.0, jitter, k)
    return base


def _random_csi(rng, k=52):
    return np.abs(rng.standard_normal(k)) + 0.05


class TestThresholds:
    def test_stable_channel_classified_static(self):
        clf = MobilityClassifier()
        rng = np.random.default_rng(0)
        estimate = None
        for i in range(6):
            estimate = clf.push_csi(0.5 * i, _flat_csi(jitter=0.001, rng=rng))
        assert estimate.mode == MobilityMode.STATIC
        assert estimate.csi_similarity > 0.98

    def test_fully_random_channel_classified_device(self):
        clf = MobilityClassifier()
        rng = np.random.default_rng(1)
        estimate = None
        for i in range(6):
            estimate = clf.push_csi(0.5 * i, _random_csi(rng))
        assert estimate.mode in (MobilityMode.MICRO, MobilityMode.MACRO)

    def test_intermediate_similarity_is_environmental(self):
        clf = MobilityClassifier()
        rng = np.random.default_rng(2)
        base = _flat_csi()
        estimate = None
        for i in range(8):
            # Perturb a subset of subcarriers: partial change.
            sample = base.copy()
            idx = rng.choice(52, size=10, replace=False)
            sample[idx] += rng.normal(0.0, 0.35, 10)
            estimate = clf.push_csi(0.5 * i, sample)
        assert estimate.mode == MobilityMode.ENVIRONMENTAL

    def test_first_sample_yields_no_estimate(self):
        clf = MobilityClassifier()
        assert clf.push_csi(0.0, _flat_csi()) is None
        assert clf.estimate is None


class TestToFGating:
    def test_tof_starts_only_on_device_mobility(self):
        clf = MobilityClassifier()
        rng = np.random.default_rng(3)
        clf.push_csi(0.0, _flat_csi(jitter=0.001, rng=rng))
        clf.push_csi(0.5, _flat_csi(jitter=0.001, rng=rng))
        assert not clf.wants_tof  # static: no ToF measurement
        for i in range(4):
            clf.push_csi(1.0 + 0.5 * i, _random_csi(rng))
        assert clf.wants_tof

    def test_tof_stops_when_mobility_ends(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        rng = np.random.default_rng(4)
        for i in range(4):
            clf.push_csi(0.5 * i, _random_csi(rng))
        assert clf.wants_tof
        stable = _flat_csi()
        for i in range(4):
            clf.push_csi(2.0 + 0.5 * i, stable)
        assert not clf.wants_tof

    def test_tof_ignored_while_inactive(self):
        clf = MobilityClassifier()
        clf.push_tof(0.0, 100.0)  # must not crash nor affect state
        assert clf.estimate is None

    def test_macro_detected_with_trending_tof(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        rng = np.random.default_rng(5)
        # Enter device mobility.
        clf.push_csi(0.0, _random_csi(rng))
        clf.push_csi(0.5, _random_csi(rng))
        assert clf.wants_tof
        # Feed 5 seconds of increasing ToF (50 samples/s).
        t = 0.5
        for second in range(5):
            for _ in range(50):
                t += 0.02
                clf.push_tof(t, 100.0 + second)
            estimate = clf.push_csi(t, _random_csi(rng))
        assert estimate.mode == MobilityMode.MACRO
        assert estimate.heading == Heading.AWAY

    def test_micro_when_tof_flat(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        rng = np.random.default_rng(6)
        clf.push_csi(0.0, _random_csi(rng))
        t = 0.0
        for second in range(5):
            for _ in range(50):
                t += 0.02
                clf.push_tof(t, 100.0 + rng.normal(0, 0.2))
            estimate = clf.push_csi(t, _random_csi(rng))
        assert estimate.mode == MobilityMode.MICRO

    def test_reset_forgets_everything(self):
        clf = MobilityClassifier()
        rng = np.random.default_rng(7)
        for i in range(4):
            clf.push_csi(0.5 * i, _random_csi(rng))
        clf.reset()
        assert clf.estimate is None
        assert not clf.wants_tof
        assert clf.history == []

    def test_history_grows_per_decision(self):
        clf = MobilityClassifier()
        rng = np.random.default_rng(8)
        for i in range(5):
            clf.push_csi(0.5 * i, _random_csi(rng))
        assert len(clf.history) == 4


class TestToFGatingAcrossResets:
    """Fig. 5: leaving device mobility must fully drop ToF state, including
    any half-accumulated median batch."""

    def _enter_device_mobility(self, clf, rng, t0=0.0):
        t = t0
        for _ in range(2):
            clf.push_csi(t, _random_csi(rng))
            t += 0.5
        assert clf.wants_tof
        return t

    def test_stale_half_batch_does_not_leak_across_episodes(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        rng = np.random.default_rng(21)
        t = self._enter_device_mobility(clf, rng)
        # Half a median batch (25 of 50 samples) at a low ToF value...
        for i in range(25):
            clf.push_tof(t + 0.02 * i, 100.0)
        # ...then the client goes static: ToF stops, the window resets.
        stable = _flat_csi()
        for _ in range(4):
            t += 0.5
            clf.push_csi(t, stable)
        assert not clf.wants_tof
        # A new mobility episode at a much higher ToF value.
        t = self._enter_device_mobility(clf, rng, t0=t + 0.5)
        for i in range(50):
            clf.push_tof(t + 0.02 * i, 200.0)
        # Exactly one full batch: were the 25 stale samples still pending,
        # the median would close early and mix 100s with 200s (150.0).
        assert clf._batch.detector.medians_of(0) == [200.0]

    def test_explicit_reset_drops_pending_tof(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        rng = np.random.default_rng(22)
        t = self._enter_device_mobility(clf, rng)
        for i in range(25):
            clf.push_tof(t + 0.02 * i, 100.0)
        clf.reset()
        t = self._enter_device_mobility(clf, rng, t0=t + 10.0)
        for i in range(50):
            clf.push_tof(t + 0.02 * i, 200.0)
        assert clf._batch.detector.medians_of(0) == [200.0]


class TestDegradedInput:
    """Gap handling and invalid-sample hygiene on both sensing inputs."""

    def _activate(self, clf, rng, t0=0.0, step=0.5):
        t = t0
        for _ in range(2):
            clf.push_csi(t, _random_csi(rng))
            t += step
        assert clf.wants_tof
        return t

    def test_csi_gap_at_limit_still_compared(self):
        clf = MobilityClassifier(
            ClassifierConfig(max_csi_gap_s=1.0, similarity_smoothing_window=1)
        )
        stable = _flat_csi()
        clf.push_csi(0.0, stable)
        estimate = clf.push_csi(1.0, stable)  # exactly the limit: no gap
        assert estimate is not None and estimate.mode == MobilityMode.STATIC

    def test_csi_gap_beyond_limit_restarts_stream(self):
        clf = MobilityClassifier(
            ClassifierConfig(max_csi_gap_s=1.0, similarity_smoothing_window=1)
        )
        rec = TelemetryRecorder()
        clf.recorder = rec
        stable = _flat_csi()
        clf.push_csi(0.0, stable)
        clf.push_csi(0.5, stable)
        rng = np.random.default_rng(23)
        # A traffic lull, then a completely different channel.  Without gap
        # awareness this would smell like device mobility; with it the
        # stream restarts and the first post-gap sample makes no decision.
        assert clf.push_csi(5.0, _random_csi(rng)) is None
        assert clf.estimate.mode == MobilityMode.STATIC  # unchanged
        assert rec.metrics.counter("classifier.csi_gaps").value == 1
        (event,) = rec.tracer.of_kind("sensing_gap")
        assert event.fields["reason"] == "sampling_gap"
        assert event.fields["gap_s"] == pytest.approx(4.5)

    def test_csi_gap_disabled_by_default(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        stable = _flat_csi()
        clf.push_csi(0.0, stable)
        estimate = clf.push_csi(60.0, stable)  # cadence-blind legacy path
        assert estimate is not None

    def test_non_finite_csi_discarded_and_counted(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        rec = TelemetryRecorder()
        clf.recorder = rec
        stable = _flat_csi()
        clf.push_csi(0.0, stable)
        bad = stable.copy()
        bad[7] = np.nan
        assert clf.push_csi(0.5, bad) is None
        assert rec.metrics.counter("classifier.invalid_samples").value == 1
        # The corrupted sample must not become the comparison baseline.
        estimate = clf.push_csi(1.0, stable)
        assert estimate.mode == MobilityMode.STATIC
        assert np.isfinite(estimate.csi_similarity)

    def test_non_finite_tof_discarded_and_counted(self):
        clf = MobilityClassifier(ClassifierConfig(similarity_smoothing_window=1))
        rec = TelemetryRecorder()
        clf.recorder = rec
        rng = np.random.default_rng(24)
        t = self._activate(clf, rng)
        for i in range(50):
            clf.push_tof(t + 0.02 * i, np.nan if i % 2 else 100.0)
        assert rec.metrics.counter("classifier.invalid_samples").value == 25
        # Only the 25 finite readings entered the (count-based) batch.
        assert clf._batch.detector.medians_of(0) == []

    def test_tof_gap_surfaces_through_telemetry(self):
        cfg = ClassifierConfig(
            similarity_smoothing_window=1,
            tof=ToFTrendConfig(time_aware=True, min_median_samples=10),
        )
        clf = MobilityClassifier(cfg)
        rec = TelemetryRecorder()
        clf.recorder = rec
        rng = np.random.default_rng(25)
        t = self._activate(clf, rng)
        for i in range(50):
            clf.push_tof(t + 0.02 * i, 100.0)
        # Three readings in the next second: sparse -> gap on close.
        clf.push_tof(t + 1.1, 101.0)
        clf.push_tof(t + 1.5, 101.0)
        clf.push_tof(t + 1.9, 101.0)
        clf.push_tof(t + 2.05, 102.0)  # closes the sparse period
        assert rec.metrics.counter("classifier.tof_gaps").value == 1
        assert rec.metrics.counter("tof.medians_discarded").value == 1
        events = rec.tracer.of_kind("sensing_gap")
        assert any(e.fields["reason"] == "sparse_period" for e in events)


class TestStretchedWindowBug:
    """The acceptance scenario: >=20% ToF loss over a macro-mobility trace.

    A count-based median filter silently stretches each "one second" batch
    over the longer wall-clock span the surviving samples cover, so a slow
    drift that should stay below ``min_net_cycles`` accumulates into a fake
    macro heading.  The time-aware detector keeps wall-clock windows honest.
    """

    def _degraded_run(self, config, duration_s=30.0, drift_per_s=0.15, drop=0.5):
        clf = MobilityClassifier(config)
        csi_rng = np.random.default_rng(31)
        drop_rng = np.random.default_rng(32)
        modes = []
        t = 0.0
        while t < duration_s:
            estimate = clf.push_csi(t, _random_csi(csi_rng))
            if estimate is not None:
                modes.append(estimate.mode)
            for i in range(25):  # 20 ms ToF cadence between CSI samples
                ts = t + 0.02 * i
                if drop_rng.random() >= drop:
                    clf.push_tof(ts, 100.0 + drift_per_s * ts)
            t += 0.5
        return modes

    def test_count_based_reports_false_macro_under_drops(self):
        """Documents the bug: the legacy config fakes a MACRO heading."""
        modes = self._degraded_run(ClassifierConfig(similarity_smoothing_window=1))
        assert MobilityMode.MACRO in modes

    def test_time_aware_rejects_stretched_window(self):
        cfg = ClassifierConfig(
            similarity_smoothing_window=1,
            tof=ToFTrendConfig(time_aware=True, min_median_samples=10),
        )
        modes = self._degraded_run(cfg)
        assert MobilityMode.MACRO not in modes
        assert MobilityMode.MICRO in modes  # device mobility still seen


class TestConfigValidation:
    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            ClassifierConfig(threshold_static=0.5, threshold_environmental=0.9)

    def test_positive_period(self):
        with pytest.raises(ValueError):
            ClassifierConfig(csi_sampling_period_s=0.0)

    def test_max_csi_gap_must_be_positive(self):
        with pytest.raises(ValueError, match="max CSI gap"):
            ClassifierConfig(max_csi_gap_s=0.0)
        assert ClassifierConfig(max_csi_gap_s=None).max_csi_gap_s is None


class TestHints:
    def test_heading_requires_macro(self):
        with pytest.raises(ValueError):
            MobilityEstimate(time_s=0.0, mode=MobilityMode.MICRO, heading=Heading.AWAY)

    def test_moving_flags(self):
        away = MobilityEstimate(0.0, MobilityMode.MACRO, Heading.AWAY)
        towards = MobilityEstimate(0.0, MobilityMode.MACRO, Heading.TOWARDS)
        static = MobilityEstimate(0.0, MobilityMode.STATIC)
        assert away.moving_away and not away.moving_towards
        assert towards.moving_towards and not towards.moving_away
        assert not static.moving_away and not static.is_device_mobility


class TestPolicyTable:
    def test_all_states_present(self):
        table = default_policy_table()
        for mode in MobilityMode:
            policy = table.lookup(mode)
            assert policy.aggregation_limit_ms > 0

    def test_macro_without_heading_uses_away_column(self):
        table = default_policy_table()
        assert table.lookup(MobilityMode.MACRO) is table.lookup(
            MobilityMode.MACRO, Heading.AWAY
        )

    def test_paper_aggregation_values(self):
        table = default_policy_table()
        assert table.lookup(MobilityMode.STATIC).aggregation_limit_ms == 8.0
        assert table.lookup(MobilityMode.ENVIRONMENTAL).aggregation_limit_ms == 8.0
        assert table.lookup(MobilityMode.MICRO).aggregation_limit_ms == 2.0
        assert table.lookup(MobilityMode.MACRO).aggregation_limit_ms == 2.0

    def test_static_keeps_longest_history(self):
        table = default_policy_table()
        alphas = {mode: table.lookup(mode).per_smoothing_factor for mode in MobilityMode}
        assert alphas[MobilityMode.STATIC] == min(alphas.values())

    def test_only_away_triggers_roaming(self):
        table = default_policy_table()
        assert table.lookup(MobilityMode.MACRO, Heading.AWAY).encourage_roaming
        assert not table.lookup(MobilityMode.MACRO, Heading.TOWARDS).encourage_roaming
        assert not table.lookup(MobilityMode.STATIC).encourage_roaming

    def test_feedback_periods_shrink_with_mobility(self):
        table = default_policy_table()
        static = table.lookup(MobilityMode.STATIC).su_bf_feedback_ms
        macro = table.lookup(MobilityMode.MACRO, Heading.AWAY).su_bf_feedback_ms
        assert macro < static

    def test_oblivious_defaults(self):
        policy = mobility_oblivious_policy()
        assert policy.per_smoothing_factor == pytest.approx(1 / 8)
        assert policy.aggregation_limit_ms == 4.0
        assert policy.rate_retries == 0
