"""Unit tests for the deterministic fault-injection harness."""

import numpy as np
import pytest

from repro.core import BatchedMobilityClassifier
from repro.core.classifier import ClassifierConfig
from repro.core.tof_trend import ToFTrendConfig
from repro.faults import (
    ChannelEvalFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    InjectedFault,
    NaNFault,
    RecorderFault,
    SessionCrashFault,
)
from repro.mobility.modes import MobilityMode
from repro.sim import BatchedSensingSession, SimulationEngine, TimeGrid
from repro.telemetry import TelemetryRecorder


def _stream(n=200, dt=0.02):
    times = np.arange(n) * dt
    values = 100.0 + 0.01 * times
    return times, values


class TestDropFault:
    def test_rate_zero_is_identity(self):
        times, values = _stream()
        plan = FaultPlan([DropFault(0.0)], seed=1)
        t, v = plan.apply_stream(times, values)
        np.testing.assert_array_equal(t, times)
        np.testing.assert_array_equal(v, values)
        assert plan.stats["faults.stream.drop.dropped"] == 0

    def test_rate_one_drops_everything(self):
        times, values = _stream(50)
        t, v = FaultPlan([DropFault(1.0)], seed=1).apply_stream(times, values)
        assert len(t) == len(v) == 0

    def test_expected_fraction_dropped(self):
        times, values = _stream(2000)
        plan = FaultPlan([DropFault(0.3)], seed=2)
        t, _ = plan.apply_stream(times, values)
        assert 0.25 < 1 - len(t) / len(times) < 0.35

    def test_grid_drops_become_none(self):
        samples = [np.ones(4) * i for i in range(100)]
        plan = FaultPlan([DropFault(0.5)], seed=3)
        out = plan.apply_grid(samples)
        n_none = sum(1 for s in out if s is None)
        assert n_none == plan.stats["faults.grid.drop.dropped"]
        assert 30 < n_none < 70

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DropFault(1.5)


class TestDuplicateFault:
    def test_stream_duplicates_at_same_timestamp(self):
        times, values = _stream(100)
        plan = FaultPlan([DuplicateFault(0.2)], seed=4)
        t, v = plan.apply_stream(times, values)
        extra = plan.stats["faults.stream.duplicate.duplicated"]
        assert len(t) == len(times) + extra
        assert extra > 0
        # Time stays non-decreasing; duplicates collide exactly.
        assert np.all(np.diff(t) >= 0)

    def test_grid_redelivers_previous_sample(self):
        samples = [np.full(4, float(i)) for i in range(200)]
        plan = FaultPlan([DuplicateFault(0.3)], seed=5)
        out = plan.apply_grid(samples)
        stale = sum(
            1
            for i in range(1, len(out))
            if out[i] is not None and out[i][0] == samples[i - 1][0]
        )
        assert stale == plan.stats["faults.grid.duplicate.duplicated"] > 0


class TestDelayFault:
    def test_stream_stays_sorted(self):
        times, values = _stream(300)
        plan = FaultPlan([DelayFault(0.25, delay_s=0.5)], seed=6)
        t, v = plan.apply_stream(times, values)
        assert len(t) == len(times)  # nothing lost, only late
        assert np.all(np.diff(t) >= 0)
        assert plan.stats["faults.stream.delay.delayed"] > 0

    def test_grid_delay_fills_only_empty_slots(self):
        samples = [np.full(2, 1.0), None, np.full(2, 3.0)]
        fault = DelayFault(1.0, delay_steps=1)  # every sample delayed
        out, stats = fault.apply_grid(samples, np.random.default_rng(0))
        # Sample 0 lands in the empty slot 1; sample 2 falls off the end.
        assert out[0] is None
        assert out[1][0] == 1.0
        assert stats["delayed"] == 1
        assert stats["superseded"] == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="delay_s"):
            DelayFault(0.1, delay_s=0.0)
        with pytest.raises(ValueError, match="delay_steps"):
            DelayFault(0.1, delay_steps=0)


class TestNaNFault:
    def test_stream_corruption_preserves_timestamps(self):
        times, values = _stream(500)
        plan = FaultPlan([NaNFault(0.2)], seed=7)
        t, v = plan.apply_stream(times, values)
        np.testing.assert_array_equal(t, times)
        n_nan = int(np.isnan(v).sum())
        assert n_nan == plan.stats["faults.stream.nan.corrupted"] > 0

    def test_grid_corrupts_whole_sample(self):
        samples = [np.ones(8), np.ones(8)]
        fault = NaNFault(1.0)
        out, stats = fault.apply_grid(samples, np.random.default_rng(0))
        assert all(np.isnan(s).all() for s in out)
        assert stats["corrupted"] == 2


class TestFaultPlan:
    def test_same_seed_reproduces_identical_corruption(self):
        times, values = _stream(1000)
        faults = lambda: [DropFault(0.2), DelayFault(0.1), NaNFault(0.05)]
        t1, v1 = FaultPlan(faults(), seed=42).apply_stream(times, values)
        t2, v2 = FaultPlan(faults(), seed=42).apply_stream(times, values)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(v1, v2)

    def test_different_seeds_diverge(self):
        times, values = _stream(1000)
        t1, _ = FaultPlan([DropFault(0.2)], seed=1).apply_stream(times, values)
        t2, _ = FaultPlan([DropFault(0.2)], seed=2).apply_stream(times, values)
        assert len(t1) != len(t2) or not np.array_equal(t1, t2)

    def test_faults_compose_in_order(self):
        # Drop-everything first means the NaN stage sees an empty stream.
        times, values = _stream(100)
        plan = FaultPlan([DropFault(1.0), NaNFault(1.0)], seed=8)
        t, v = plan.apply_stream(times, values)
        assert len(t) == 0
        assert plan.stats["faults.stream.nan.corrupted"] == 0

    def test_stats_accumulate_across_calls(self):
        times, values = _stream(100)
        plan = FaultPlan([DropFault(1.0)], seed=9)
        plan.apply_stream(times, values, label="tof")
        plan.apply_stream(times, values, label="tof")
        assert plan.stats["faults.tof.drop.dropped"] == 200

    def test_mismatched_stream_shapes_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            FaultPlan([], seed=0).apply_stream([0.0, 1.0], [5.0])


class CountingClassifier(BatchedMobilityClassifier):
    """A one-member classifier counting the readings its session feeds it."""

    def __init__(self, config=None):
        super().__init__(["client"], config)
        self.n_tof = 0
        self.n_csi = 0

    def push_tof(self, chunks, mask=None):
        self.n_tof += sum(len(chunk[0]) for chunk in chunks if chunk is not None)
        super().push_tof(chunks, mask=mask)

    def push_csi(self, time_s, samples, mask=None):
        self.n_csi += 1  # one member: the session pushes only present samples
        return super().push_csi(time_s, samples, mask=mask)


class TestSessionWiring:
    """FaultPlan plugged into the sensing session degrades the run's inputs."""

    def _run(self, faults=None, recorder=None, n_steps=8):
        rng = np.random.default_rng(0)
        classifier = CountingClassifier()
        times = np.arange(n_steps * 5) * 0.1
        session = BatchedSensingSession(
            classifier,
            [[rng.normal(1.0, 0.2, 4) for _ in range(n_steps)]],
            [times],
            [np.full(len(times), 100.0)],
            client="client",
            faults=None if faults is None else {"client": faults},
        )
        grid = TimeGrid(np.arange(n_steps) * 0.5)
        engine = SimulationEngine(grid, recorder=recorder) if recorder else SimulationEngine(grid)
        engine.add(session)
        engine.run()
        return classifier

    def test_no_faults_delivers_everything(self):
        classifier = self._run()
        assert classifier.n_csi == 8

    def test_dropped_csi_steps_are_skipped_and_counted(self):
        recorder = TelemetryRecorder()
        classifier = self._run(
            faults=FaultPlan([DropFault(0.5)], seed=11), recorder=recorder
        )
        missing = recorder.metrics.counter("sensing.csi_missing", client="client").value
        assert missing > 0
        assert classifier.n_csi == 8 - missing

    def test_fault_stats_surface_as_counters(self):
        recorder = TelemetryRecorder()
        self._run(faults=FaultPlan([DropFault(0.5)], seed=12), recorder=recorder)
        counters = recorder.metrics.counters()
        assert any(name.startswith("faults.tof.drop") for name in counters)
        assert any(name.startswith("faults.csi.drop") for name in counters)

    def test_tof_drop_thins_the_timed_stream(self):
        classifier = self._run(faults=FaultPlan([DropFault(0.4)], seed=13))
        assert 0 < classifier.n_tof < self._run().n_tof


class TestEndToEndDegradedRun:
    """ISSUE acceptance: a >=20% ToF drop over a macro-mobility trace must
    not fake (or lose) the classification when the pipeline is time-aware."""

    def _macro_run(self, tof_config, seed=99):
        cfg = ClassifierConfig(similarity_smoothing_window=1, tof=tof_config)
        rng = np.random.default_rng(seed)
        n_steps = 40  # 20 s at the 0.5 s CSI cadence
        csi = [np.abs(rng.standard_normal(52)) + 0.05 for _ in range(n_steps)]
        tof_times = np.arange(0.0, n_steps * 0.5, 0.02)
        tof_readings = 100.0 + 1.2 * tof_times  # brisk walk away: true MACRO
        session = BatchedSensingSession(
            BatchedMobilityClassifier(["client"], cfg),
            [csi],
            [tof_times],
            [tof_readings],
            client="client",
            faults={"client": FaultPlan([DropFault(0.25)], seed=seed)},
        )
        engine = SimulationEngine(TimeGrid(np.arange(n_steps) * 0.5))
        engine.add(session)
        estimates = engine.run()["client"]
        return [e.mode for e in estimates]

    def test_true_macro_survives_25_percent_drop(self):
        modes = self._macro_run(ToFTrendConfig(time_aware=True, min_median_samples=10))
        assert MobilityMode.MACRO in modes

    def test_count_based_also_detects_but_without_gap_accounting(self):
        # The drift here is strong (1.2 cycles/s), so even the stretched
        # count-based window calls MACRO; the stretched-window *failure*
        # (slow drift faked into MACRO) is pinned in
        # tests/test_core_classifier.py::TestStretchedWindowBug.
        modes = self._macro_run(ToFTrendConfig())
        assert MobilityMode.MACRO in modes


class TestSessionCrashFault:
    def test_validation(self):
        with pytest.raises(ValueError, match="phase"):
            SessionCrashFault(phase="teleport")
        with pytest.raises(ValueError, match="at_step"):
            SessionCrashFault(at_step=-1)
        with pytest.raises(ValueError, match="n_crashes"):
            SessionCrashFault(n_crashes=0)

    def test_crash_window(self):
        fault = SessionCrashFault(phase="adapt", at_step=5, n_crashes=3)
        assert not fault.should_crash("adapt", 4)
        assert all(fault.should_crash("adapt", s) for s in (5, 6, 7))
        assert not fault.should_crash("adapt", 8)
        assert not fault.should_crash("sense", 5)

    def test_fire_raises_and_counts(self):
        fault = SessionCrashFault(at_step=0)
        with pytest.raises(InjectedFault, match="injected session crash"):
            fault.fire()
        assert fault.n_fired == 1

    def test_seeded_arm_is_deterministic(self):
        armed = []
        for _ in range(5):
            fault = SessionCrashFault(seed=7)
            fault.arm(200)
            armed.append(fault.at_step)
        assert len(set(armed)) == 1
        assert 0 <= armed[0] < 200

    def test_arm_respects_pinned_step(self):
        fault = SessionCrashFault(at_step=13, seed=7)
        fault.arm(200)
        assert fault.at_step == 13


class TestChannelEvalFault:
    def test_fires_on_scheduled_call_only(self):
        fault = ChannelEvalFault(at_call=2)

        class FakeChannel:
            def evaluate(self):
                return "ok"

        wrapped = fault.wrap(FakeChannel())
        assert wrapped.evaluate() == "ok"
        assert wrapped.evaluate() == "ok"
        with pytest.raises(InjectedFault):
            wrapped.evaluate()
        assert wrapped.evaluate() == "ok"  # one-shot
        assert fault.n_fired == 1

    def test_proxy_is_attribute_transparent(self):
        class FakeChannel:
            def __init__(self):
                self.recorder = "original"

            def evaluate(self):
                return "ok"

        inner = FakeChannel()
        wrapped = ChannelEvalFault(at_call=99).wrap(inner)
        wrapped.recorder = "replaced"
        assert inner.recorder == "replaced"
        assert wrapped.recorder == "replaced"


class TestRecorderFault:
    def test_rate_one_raises_on_targeted_hooks_only(self):
        fault = RecorderFault(hooks=("count",))
        recorder = fault.wrap(TelemetryRecorder())
        with pytest.raises(InjectedFault, match=r"\(count\)"):
            recorder.count("x")
        recorder.gauge("y", 1.0)  # untargeted hook passes through
        assert fault.n_fired == 1

    def test_seeded_partial_rate_is_deterministic(self):
        def fired(seed):
            fault = RecorderFault(rate=0.5, seed=seed)
            recorder = fault.wrap(TelemetryRecorder())
            outcomes = []
            for _ in range(50):
                try:
                    recorder.event("tick", 0.0)
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
            return outcomes

        assert fired(11) == fired(11)
        assert any(fired(11)) and not all(fired(11))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RecorderFault(rate=1.2)
