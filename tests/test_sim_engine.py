"""Unit tests for the unified simulation engine (``repro.sim``)."""

import numpy as np
import pytest

from repro.core import BatchedMobilityClassifier
from repro.core.classifier import ClassifierConfig
from repro.sim import (
    PHASES,
    BatchedSensingSession,
    Session,
    SessionError,
    SimulationEngine,
    TimeGrid,
)


class RecordingSession(Session):
    """Appends (client, phase, step index) to a shared journal."""

    def __init__(self, client, journal):
        self.client = client
        self.journal = journal

    def _record(self, phase, clock):
        self.journal.append((self.client, phase, clock.index))

    def sense(self, clock):
        self._record("sense", clock)

    def classify(self, clock):
        self._record("classify", clock)

    def adapt(self, clock):
        self._record("adapt", clock)

    def transmit(self, clock):
        self._record("transmit", clock)

    def finish(self):
        return self.client


class TestPhaseOrdering:
    def test_phase_major_across_sessions(self):
        """Per step, every session runs a phase before any session moves on."""
        journal = []
        engine = SimulationEngine(TimeGrid(np.array([0.0, 0.1])))
        engine.add(RecordingSession("a", journal))
        engine.add(RecordingSession("b", journal))
        results = engine.run()

        expected = [
            (client, phase, index)
            for index in (0, 1)
            for phase in PHASES
            for client in ("a", "b")
        ]
        assert journal == expected
        assert results == {"a": "a", "b": "b"}

    def test_phases_are_the_papers_pipeline(self):
        assert PHASES == ("sense", "classify", "adapt", "transmit")


class TestTimeGrid:
    def test_clock_windows_tile_the_grid(self):
        grid = TimeGrid(np.arange(0.0, 1.0, 0.1))
        clocks = [grid.clock(i) for i in range(len(grid))]
        for earlier, later in zip(clocks, clocks[1:]):
            assert later.start_s == pytest.approx(earlier.end_s)
        assert clocks[0].dt_s == pytest.approx(0.1)

    def test_stride_matches_csi_sampling_period(self):
        """The default CSI cadence maps exactly onto the 100 ms channel grid."""
        config = ClassifierConfig()
        grid = TimeGrid(np.arange(0.0, 10.0, 0.1))
        stride = grid.stride_for(config.csi_sampling_period_s)
        assert stride == round(config.csi_sampling_period_s / 0.1)
        assert stride * grid.dt_s == pytest.approx(config.csi_sampling_period_s)

    def test_strict_stride_rejects_misaligned_period(self):
        grid = TimeGrid(np.arange(0.0, 10.0, 0.1))
        with pytest.raises(ValueError, match="not aligned"):
            grid.stride_for(0.13)

    def test_lenient_stride_rounds(self):
        grid = TimeGrid(np.arange(0.0, 10.0, 0.1))
        assert grid.stride_for(0.13, strict=False) == 1
        assert grid.stride_for(0.26, strict=False) == 3

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            TimeGrid(np.array([0.0, 0.1, 0.3]))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid(np.array([0.3, 0.2, 0.1]))

    def test_index_at_clamps(self):
        grid = TimeGrid(np.arange(0.0, 1.0, 0.1))
        assert grid.index_at(-5.0) == 0
        assert grid.index_at(0.55) == 5
        assert grid.index_at(99.0) == len(grid) - 1

    def test_accepts_epoch_anchored_grid(self):
        """Regression: spacing tolerance must scale with the magnitude.

        A replayed capture clock anchored at a Unix epoch puts ~1.7e9 on
        the grid; float64 step jitter there is ~2.4e-7 s — far past the
        old absolute 1e-9 tolerance, which spuriously rejected the grid.
        """
        anchor = 1.7e9  # a 2023 Unix timestamp, as a CSI capture would carry
        times = anchor + np.arange(0.0, 600.0, 0.001)
        assert np.abs(np.diff(times) - 0.001).max() > 1e-9  # trips the old check
        grid = TimeGrid(times)
        assert len(grid) == len(times)
        # dt inferred from a first diff at a 1.7e9 anchor carries the
        # anchor's representation error (~1e-7 absolute).
        assert grid.dt_s == pytest.approx(0.001, rel=1e-3)
        # A caller who knows the exact cadence can pin it.
        assert TimeGrid(times, dt_s=0.001).dt_s == 0.001

    def test_accepts_hours_long_millisecond_grid(self):
        grid = TimeGrid(np.arange(0.0, 4 * 3600.0, 0.001))
        assert grid.dt_s == pytest.approx(0.001)

    def test_still_rejects_genuinely_non_uniform_long_grid(self):
        times = 1.7e9 + np.arange(0.0, 60.0, 0.001)
        times[30_000] += 0.0004  # a real 0.4 ms glitch, not representation error
        with pytest.raises(ValueError, match="uniform"):
            TimeGrid(times)

    def test_regular_builds_the_anchored_grid_exactly(self):
        grid = TimeGrid.regular(1.7e9, 0.001, 10_000)
        assert len(grid) == 10_000
        assert grid.start_s == pytest.approx(1.7e9)
        assert grid.dt_s == pytest.approx(0.001)

    def test_regular_validates(self):
        with pytest.raises(ValueError, match="positive"):
            TimeGrid.regular(0.0, 0.0, 10)
        with pytest.raises(ValueError, match=">= 1"):
            TimeGrid.regular(0.0, 0.1, 0)


class TestSessionError:
    def test_failure_names_client_phase_and_time(self):
        class Exploding(Session):
            client = "tablet-3"

            def adapt(self, clock):
                raise KeyError("missing rate table")

        engine = SimulationEngine(TimeGrid(np.array([0.0, 0.1])))
        engine.add(Exploding())
        with pytest.raises(SessionError) as excinfo:
            engine.run()
        assert "tablet-3" in str(excinfo.value)
        assert "adapt" in str(excinfo.value)
        assert excinfo.value.client == "tablet-3"
        assert excinfo.value.phase == "adapt"
        assert excinfo.value.time_s == pytest.approx(0.0)

    def test_start_failures_are_wrapped_too(self):
        # Three CSI samples cannot cover a two-step grid: start() raises.
        session = BatchedSensingSession(
            BatchedMobilityClassifier(["laptop"]), [[np.ones(4)] * 3], client="laptop"
        )
        engine = SimulationEngine(TimeGrid(np.array([0.0, 0.1])))
        engine.add(session)
        with pytest.raises(SessionError, match="laptop.*start"):
            engine.run()


class TestEngineRegistration:
    def test_run_without_sessions_raises(self):
        engine = SimulationEngine(TimeGrid(np.array([0.0, 0.1])))
        with pytest.raises(ValueError, match="no sessions"):
            engine.run()

    def test_duplicate_client_names_rejected(self):
        engine = SimulationEngine(TimeGrid(np.array([0.0, 0.1])))
        engine.add(RecordingSession("a", []))
        with pytest.raises(ValueError, match="duplicate"):
            engine.add(RecordingSession("a", []))

    def test_engine_is_single_use(self):
        """Sessions are stateful; a silent second run would continue them."""
        engine = SimulationEngine(TimeGrid(np.array([0.0, 0.1])))
        engine.add(RecordingSession("a", []))
        engine.run()
        with pytest.raises(RuntimeError, match="already ran"):
            engine.run()


class JournalingClassifier(BatchedMobilityClassifier):
    """Journals every reading the session feeds it, then classifies for real."""

    def __init__(self, label):
        super().__init__([label])
        self.journal = []

    def push_tof(self, chunks, mask=None):
        for chunk in chunks:
            if chunk is not None:
                self.journal.extend(("tof", float(t), float(v)) for t, v in zip(*chunk))
        super().push_tof(chunks, mask=mask)

    def push_csi(self, time_s, samples, mask=None):
        self.journal.append(("csi", time_s))
        return super().push_csi(time_s, samples, mask=mask)


class TestSensingSession:
    """A single link runs as a one-member ``BatchedSensingSession``."""

    def test_tof_readings_must_pair_with_times(self):
        with pytest.raises(ValueError, match="pair"):
            BatchedSensingSession(
                BatchedMobilityClassifier(["client"]),
                [[np.ones(4)]],
                tof_times_by_client=[[0.0, 0.1]],
                tof_readings_by_client=[[5.0]],
            )

    def test_estimates_stream_in_decision_order(self):
        rng = np.random.default_rng(3)
        csi = [rng.normal(1.0, 0.2, 8) for _ in range(4)]
        csi[2] = None  # a step without traffic classifies nothing
        classifier = JournalingClassifier("laptop")
        seen = []
        session = BatchedSensingSession(
            classifier,
            [csi],
            tof_times_by_client=[[0.0, 0.05, 0.15, 0.25]],
            tof_readings_by_client=[[7.0, 8.0, 9.0, 10.0]],
            client="laptop",
            on_estimate=lambda client, now, est: seen.append((client, now, est)),
        )
        engine = SimulationEngine(TimeGrid(np.array([0.0, 0.1, 0.2, 0.3])))
        engine.add(session)
        estimates = engine.run()["laptop"]
        # ToF readings arrive before the step's CSI decision, in timestamp order.
        assert classifier.journal == [
            ("tof", 0.0, 7.0), ("csi", 0.0),
            ("tof", 0.05, 8.0), ("csi", 0.1),
            ("tof", 0.15, 9.0),
            ("tof", 0.25, 10.0), ("csi", 0.3),
        ]
        # The first CSI sample only primes the similarity stream.
        assert [e.time_s for e in estimates] == [0.1, 0.3]
        assert seen == [("laptop", e.time_s, e) for e in estimates]
