"""The observability subsystem: metrics, tracing, recorders, exporters.

The load-bearing guarantee is *zero interference*: a live
:class:`TelemetryRecorder` must never change simulation results — seeded
runs stay bit-identical with telemetry on or off, pinned here against the
same golden values as :mod:`tests.test_golden_engine`.
"""

import csv
import io
import json
from time import perf_counter

import numpy as np
import pytest

from repro.channel.config import ChannelConfig
from repro.channel.model import MultiLinkChannel
from repro.core.batched import BatchedMobilityClassifier
from repro.core.hints import MobilityEstimate
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.trajectory import WaypointWalkTrajectory
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.simulator import RateControlSession
from repro.sim import BatchedSensingSession, Session, SimulationEngine, TimeGrid
from repro.telemetry import (
    DEFAULT_HISTOGRAM_EDGES,
    NULL_RECORDER,
    HistogramMetric,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    TelemetryRecorder,
    Tracer,
    events_to_jsonl,
    format_counts,
    metrics_to_csv,
    render_run_summary,
)
from repro.testing import synthetic_trace
from repro.util.geometry import Point
from repro.wlan.scheduler import MobilityAwareScheduler, SchedulingSession


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.count("frames")
        registry.count("frames", 2.0)
        assert registry.counter("frames").value == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().count("frames", -1.0)

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("mbps", 10.0)
        registry.set_gauge("mbps", 7.5)
        assert registry.gauge("mbps").value == 7.5
        assert registry.gauge("mbps").n_sets == 2

    def test_per_client_series_stay_separate(self):
        registry = MetricsRegistry()
        registry.count("frames", client="a")
        registry.count("frames", client="b")
        registry.count("frames", client="b")
        assert registry.counters() == {"frames [a]": 1.0, "frames [b]": 2.0}

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.count("x")
        with pytest.raises(TypeError):
            registry.set_gauge("x", 1.0)

    def test_rows_are_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.set_gauge("b", 2.0)
        registry.count("a", client="c1")
        rows = list(registry.rows())
        assert rows == [
            ("counter", "a", "c1", "value", 1.0),
            ("gauge", "b", "", "value", 2.0),
        ]


class TestHistogram:
    def test_bucket_edges(self):
        hist = HistogramMetric("t", edges=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.9, 2.0, 4.0, 100.0):
            hist.observe(value)
        # underflow | [1,2) | [2,4) | >=4
        assert hist.counts.tolist() == [1, 2, 1, 2]
        assert hist.bucket_label(0) == "<1"
        assert hist.bucket_label(1) == "[1,2)"
        assert hist.bucket_label(3) == ">=4"
        assert hist.n == 6
        assert hist.min == 0.5 and hist.max == 100.0
        assert hist.mean == pytest.approx(sum((0.5, 1.0, 1.9, 2.0, 4.0, 100.0)) / 6)

    def test_default_edges_cover_wall_times(self):
        hist = HistogramMetric("t")
        hist.observe(3e-6)
        hist.observe(0.5)
        assert hist.counts.sum() == 2
        assert hist.counts[0] == 0  # nothing underflows typical wall times
        assert len(hist.counts) == len(DEFAULT_HISTOGRAM_EDGES) + 1

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            HistogramMetric("t", edges=(1.0, 1.0))

    @pytest.mark.parametrize("edges", [DEFAULT_HISTOGRAM_EDGES, (1.0, 2.0, 4.0), (0.0,)])
    def test_bucket_matches_searchsorted(self, edges):
        """Each value lands in the bucket ``searchsorted(side="right")`` names."""
        edges_arr = np.asarray(edges, dtype=float)
        values = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0]
        for edge in edges_arr:
            values += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        rng = np.random.default_rng(11)
        values += list(10.0 ** rng.uniform(-8, 4, size=200))
        values += list(rng.normal(0.0, 3.0, size=50))
        for value in values:
            hist = HistogramMetric("t", edges=edges)
            hist.observe(value)
            expected = int(np.searchsorted(edges_arr, value, side="right"))
            assert hist.counts.sum() == 1 and hist.counts[expected] == 1, value


class TestTracer:
    def test_ring_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit("tick", float(i))
        assert len(tracer) == 3
        assert tracer.n_emitted == 5
        assert tracer.n_dropped == 2
        assert [e.time_s for e in tracer] == [2.0, 3.0, 4.0]

    def test_kinds_and_of_kind(self):
        tracer = Tracer()
        tracer.emit("a", 0.0)
        tracer.emit("b", 1.0, client="c")
        tracer.emit("a", 2.0)
        assert tracer.kinds() == {"a": 2, "b": 1}
        assert [e.time_s for e in tracer.of_kind("a")] == [0.0, 2.0]

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        tracer.emit("classifier_verdict", 1.5, client="c0", mode="static", similarity=0.99)
        tracer.emit("phase", 2.0, step=4, phase="transmit", elapsed_s=1e-4)
        text = events_to_jsonl(tracer)
        lines = text.splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0] == {
            "kind": "classifier_verdict",
            "time_s": 1.5,
            "client": "c0",
            "mode": "static",
            "similarity": 0.99,
        }
        assert records[1]["step"] == 4 and records[1]["phase"] == "transmit"


class TestRecorders:
    def test_null_recorder_is_silent(self):
        rec = NullRecorder()
        assert rec.enabled is False
        # every hook is a no-op returning None
        assert rec.count("x") is None
        assert rec.gauge("x", 1.0) is None
        assert rec.observe("x", 1.0) is None
        assert rec.event("k", 0.0, extra=1) is None
        assert rec.phase_time("sense", 0, 0.0, 1e-6) is None
        assert rec.channel_eval("op", 1, 10, 1e-3) is None

    def test_telemetry_recorder_accumulates(self):
        rec = TelemetryRecorder()
        rec.event("adaptation", 1.0, client="c", action="scan")
        rec.phase_time("transmit", 0, 0.0, 2e-3)
        rec.channel_eval("evaluate_many", 3, 50, 1e-3)
        kinds = rec.tracer.kinds()
        assert kinds == {"adaptation": 1, "phase": 1, "channel_batch": 1}
        assert rec.metrics.counter("events.adaptation").value == 1.0
        assert rec.profile.total_phase_s == pytest.approx(2e-3)
        assert rec.profile.channel_calls["evaluate_many"] == 1


GOLDEN_SCHEDULER_MBPS = [31.442577806818026, 14.087297458742356, 50.100227719646455]
GOLDEN_SCHEDULER_SLOTS = [596, 667, 1145]


def _scheduler_run(recorder):
    traces = [
        synthetic_trace(snr_db=22.0, duration_s=10.0),
        synthetic_trace(snr_db=lambda t: 10.0 + 1.2 * t, duration_s=10.0, doppler_hz=23.0),
        synthetic_trace(snr_db=lambda t: 34.0 - 1.2 * t, duration_s=10.0, doppler_hz=23.0),
    ]
    hints = [
        [MobilityEstimate(0.1, MobilityMode.STATIC)],
        [MobilityEstimate(0.1, MobilityMode.MACRO, Heading.TOWARDS, tof_window_full=True)],
        [MobilityEstimate(0.1, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True)],
    ]
    session = SchedulingSession(
        MobilityAwareScheduler(), traces, hints=hints, transmitter_seed=3
    )
    engine = SimulationEngine(TimeGrid(traces[0].times), recorder=recorder)
    engine.add(session)
    return engine.run()[session.client]


class TestGoldenBitIdentical:
    """Live telemetry must not perturb the pinned golden results."""

    def test_scheduler_golden_with_live_recorder(self):
        recorder = TelemetryRecorder()
        result = _scheduler_run(recorder)
        assert result.per_client_mbps == GOLDEN_SCHEDULER_MBPS
        assert result.slots_served == GOLDEN_SCHEDULER_SLOTS
        # the run actually traced: hints were applied, slots counted
        assert recorder.tracer.kinds()["adaptation"] == 3
        assert recorder.metrics.counter("scheduler.slots", client="2").value == 1145

    def test_scheduler_golden_with_null_recorder(self):
        assert _scheduler_run(NULL_RECORDER).per_client_mbps == GOLDEN_SCHEDULER_MBPS


def _for_clients_run(recorder):
    """Seeded 3-client run mixing sensing (classifier) and rate sessions."""
    n = 3
    trajectories = [
        WaypointWalkTrajectory(Point(5.0 + i, 5.0), area=(-40, -40, 40, 40), seed=10 + i).sample(
            5.0, 0.05
        )
        for i in range(n)
    ]
    hints = [MobilityEstimate(1.0, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True)]

    def factory(index, trace):
        if index == 0:
            measured = trace.measured_csi(np.random.default_rng(0))
            return BatchedSensingSession(
                BatchedMobilityClassifier(["sense-0"]), [measured], client="sense-0"
            )
        return RateControlSession(
            AtherosRateAdaptation(), trace, hints=hints, client=f"rate-{index}"
        )

    channel = MultiLinkChannel.for_clients(Point(0, 0), n, ChannelConfig(), seed=9)
    engine = SimulationEngine.for_clients(
        channel, trajectories, factory, sample_interval_s=0.1, include_h=True, recorder=recorder
    )
    return engine.run()


class TestAcceptanceRun:
    """The ISSUE acceptance: seeded for_clients run, live recorder, all
    exporters parseable, results bit-identical to the NullRecorder run."""

    @pytest.fixture(scope="class")
    def live(self):
        recorder = TelemetryRecorder()
        results = _for_clients_run(recorder)
        return recorder, results

    def test_bit_identical_with_recorder_off(self, live):
        _, live_results = live
        null_results = _for_clients_run(NULL_RECORDER)
        assert [e.mode for e in null_results["sense-0"]] == [
            e.mode for e in live_results["sense-0"]
        ]
        for name in ("rate-1", "rate-2"):
            assert null_results[name].throughput_mbps == live_results[name].throughput_mbps
            assert null_results[name].n_frames == live_results[name].n_frames

    def test_required_event_kinds_present(self, live):
        recorder, _ = live
        kinds = set(recorder.tracer.kinds())
        assert {
            "run_start",
            "run_end",
            "phase",
            "channel_batch",
            "classifier_verdict",
            "adaptation",
        } <= kinds

    def test_channel_batch_event_carries_batch_size(self, live):
        recorder, _ = live
        (event,) = recorder.tracer.of_kind("channel_batch")
        assert event.fields["batch_size"] == 3
        assert event.fields["op"] == "evaluate_many"
        assert event.fields["elapsed_s"] > 0

    def test_jsonl_trace_parses(self, live, tmp_path):
        recorder, _ = live
        path = tmp_path / "trace.jsonl"
        recorder.write_events_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(recorder.tracer)
        for line in lines:
            record = json.loads(line)
            assert "kind" in record and "time_s" in record

    def test_metrics_csv_parses(self, live, tmp_path):
        recorder, _ = live
        path = tmp_path / "metrics.csv"
        recorder.write_metrics_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["metric", "name", "client", "field", "value"]
        kinds = {row[0] for row in rows[1:]}
        assert {"counter", "gauge", "histogram"} <= kinds
        for row in rows[1:]:
            float(row[4])  # every value parses as a number

    def test_run_summary_renders(self, live):
        recorder, _ = live
        text = recorder.summary()
        assert "phase wall time:" in text
        assert "channel evaluation:" in text
        assert "events:" in text
        assert "transmit" in text


class _CheckCountingRecorder(Recorder):
    """Disabled recorder whose ``enabled`` accesses are counted."""

    def __init__(self):
        self.checks = 0

    @property
    def enabled(self):
        self.checks += 1
        return False


def _overhead_engine(recorder):
    """The 32-client benchmark run, with ``recorder`` force-bound.

    ``bind_recorder`` is applied even though the recorder is disabled so
    that every ``recorder.enabled`` gate in the hot paths hits it — the
    exact attribute accesses the disabled path pays for.
    """
    n = 32
    trajectories = [
        WaypointWalkTrajectory(Point(5.0 + i, 5.0), area=(-40, -40, 40, 40), seed=10 + i).sample(
            5.0, 0.05
        )
        for i in range(n)
    ]
    channel = MultiLinkChannel.for_clients(Point(0, 0), n, ChannelConfig(), seed=9)
    engine = SimulationEngine.for_clients(
        channel,
        trajectories,
        lambda i, trace: RateControlSession(
            AtherosRateAdaptation(), trace, client=f"client-{i}"
        ),
        sample_interval_s=0.1,
    )
    engine.recorder = recorder
    for session in engine.sessions:
        session.bind_recorder(recorder)
    return engine


class TestNullRecorderOverhead:
    def test_disabled_path_overhead_below_5_percent(self):
        """NullRecorder cost = (#enabled checks) x (cost of one check).

        Counting the checks directly and micro-timing one check is robust
        against scheduler jitter, unlike differencing two wall-time runs.
        """
        counting = _CheckCountingRecorder()
        _overhead_engine(counting).run()
        n_checks = counting.checks

        engine = _overhead_engine(NULL_RECORDER)
        t0 = perf_counter()
        engine.run()
        run_s = perf_counter() - t0

        reps = 100_000
        null = NULL_RECORDER
        t0 = perf_counter()
        for _ in range(reps):
            null.enabled
        per_check_s = (perf_counter() - t0) / reps

        overhead = n_checks * per_check_s
        assert n_checks > 0
        assert overhead < 0.05 * run_s, (
            f"{n_checks} checks x {per_check_s:.2e}s = {overhead:.4f}s "
            f"vs run {run_s:.4f}s"
        )


class _CallCountingRecorder(Recorder):
    """Live recorder that only remembers the name of each hook call."""

    enabled = True

    def __init__(self):
        self.calls = []

    def count(self, name, value=1.0, client=None):
        self.calls.append(name)

    def gauge(self, name, value, client=None):
        self.calls.append(name)

    def observe(self, name, value, client=None):
        self.calls.append(name)

    def event(self, kind, time_s, client=None, step=None, **fields):
        self.calls.append(kind)


class TestServiceHookCount:
    """The live service's telemetry work per call must not grow with N."""

    @staticmethod
    def router(n):
        from repro.stream import StreamConfig, StreamRouter

        recorder = _CallCountingRecorder()
        labels = [f"c{i}" for i in range(n)]
        config = StreamConfig(dt_s=0.5, horizon_steps=20, queue_capacity=8)
        router = StreamRouter(
            BatchedMobilityClassifier(labels), config=config, recorder=recorder
        )
        return router, recorder, labels

    @staticmethod
    def stream_calls(recorder, since):
        return [name for name in recorder.calls[since:] if name.startswith("stream.")]

    def test_offer_and_noop_advance_cost_nothing_per_fleet_member(self):
        from repro.stream import Observation

        router, recorder, labels = self.router(256)
        before = len(recorder.calls)
        assert router.offer(Observation(labels[0], 1.0, "csi", np.ones(4)))
        assert len(recorder.calls) - before <= 2
        before = len(recorder.calls)
        assert router.advance(-0.1) == 0  # the first step (t=0) is not due
        assert recorder.calls[before:] == []

    def test_stepping_advance_makes_the_same_stream_calls_at_any_fleet_size(self):
        from repro.stream import Observation

        per_size = {}
        for n in (16, 256):
            router, recorder, labels = self.router(n)
            for label in labels:  # every member has its CSI: no csi_missing
                router.offer(Observation(label, 0.0, "csi", np.ones(4)))
                router.offer(Observation(label, 0.0, "tof", 200.0))
            before = len(recorder.calls)
            assert router.advance(0.0) == 1
            per_size[n] = self.stream_calls(recorder, before)
        assert per_size[16] == per_size[256]
        assert len(per_size[256]) == 3

    def test_noop_service_advance_records_nothing(self, tmp_path):
        from repro.resilience import ResilienceConfig, ResilientService
        from repro.stream import StreamConfig

        recorder = _CallCountingRecorder()
        service = ResilientService(
            BatchedMobilityClassifier(["a", "b"]),
            StreamConfig(dt_s=0.5, horizon_steps=20),
            resilience=ResilienceConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every_s=2.0
            ),
            recorder=recorder,
        )
        service.advance(1.0)  # runs steps 0.0, 0.5, 1.0
        before = len(recorder.calls)
        service.advance(1.2)
        assert recorder.calls[before:] == []
        assert service.total_steps == 3


class TestExportFormatting:
    def test_format_counts_values_and_shares(self):
        text = format_counts({"static": 3.0, "micro": 1.0}, title="decisions:")
        assert text.splitlines()[0] == "decisions:"
        assert "static" in text and "75.0%" in text and "25.0%" in text

    def test_format_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            format_counts({})

    def test_summary_of_empty_recorder_is_header_only(self):
        text = render_run_summary(TelemetryRecorder(), title="empty")
        assert text.splitlines()[0] == "empty"
        assert "phase wall time" not in text

    def test_metrics_to_csv_matches_rows(self):
        registry = MetricsRegistry()
        registry.count("frames", 5.0, client="a")
        reader = csv.reader(io.StringIO(metrics_to_csv(registry)))
        assert list(reader) == [
            ["metric", "name", "client", "field", "value"],
            ["counter", "frames", "a", "value", "5.0"],
        ]
