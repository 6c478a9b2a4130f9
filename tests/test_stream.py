"""The streaming ingestion service: router, queues, backpressure, eviction.

The heart of the suite is the equivalence contract: a trace streamed
through :class:`repro.stream.StreamRouter` produces **bit-identical**
estimates to the batch :class:`repro.sim.BatchedSensingSession` run on
the same observations.  Around it: queue semantics, every backpressure
policy, idle eviction/revival, late/unknown rejection, and the telemetry
accounting that keeps all of those decisions visible.

Checkpoint/resume has its own module (``test_stream_checkpoint.py``).
"""

import numpy as np
import pytest

from repro.core.batched import BatchedMobilityClassifier
from repro.core.hints import Heading, MobilityMode
from repro.sim import BatchedSensingSession, SimulationEngine, TimeGrid
from repro.stream import (
    BACKPRESSURE_POLICIES,
    FleetSpec,
    Observation,
    SessionQueue,
    SimulatedSource,
    StreamConfig,
    StreamRouter,
)
from repro.telemetry.recorder import TelemetryRecorder


def counter_total(recorder, name, client=None):
    if client is not None:
        return recorder.metrics.counter(name, client=client).value
    from repro.telemetry.metrics import CounterMetric

    return sum(
        m.value
        for m in recorder.metrics.metrics()
        if isinstance(m, CounterMetric) and m.name == name
    )


def estimates_equal(a, b):
    """Deep equality of two results dicts (estimate streams per client)."""
    if set(a) != set(b):
        return False
    for label in a:
        if len(a[label]) != len(b[label]):
            return False
        for x, y in zip(a[label], b[label]):
            if x.to_dict() != y.to_dict():
                return False
    return True


def drive(router, observations, config, assert_accepted=True):
    """The service loop: offer each observation, advance behind arrivals."""
    for observation in observations:
        accepted = router.offer(observation)
        if assert_accepted:
            assert accepted, f"rejected {observation}"
        router.advance(observation.time_s - config.dt_s)
    router.advance(config.start_s + (config.horizon_steps - 1) * config.dt_s)
    return router.results()


class TestObservation:
    def test_kinds_validated(self):
        with pytest.raises(ValueError, match="kind"):
            Observation("c", 0.0, "rssi", 1.0)

    def test_frozen(self):
        observation = Observation("c", 0.0, "tof", 1.0)
        with pytest.raises(AttributeError):
            observation.time_s = 2.0


class TestSessionQueue:
    def test_pop_tof_due_drains_all_due_in_order(self):
        queue = SessionQueue(capacity=8)
        for t in (0.1, 0.2, 0.3, 0.7):
            queue.push_tof(t, 100.0 + t)
        times, values = queue.pop_tof_due(0.5)
        assert list(times) == [0.1, 0.2, 0.3]
        assert list(values) == [100.1, 100.2, 100.3]
        assert len(queue) == 1  # the 0.7 reading stays queued

    def test_pop_csi_due_consumes_one_oldest(self):
        queue = SessionQueue(capacity=8)
        queue.push_csi(0.1, np.full(4, 1.0))
        queue.push_csi(0.2, np.full(4, 2.0))
        first = queue.pop_csi_due(0.5)
        assert first is not None and float(first[0]) == 1.0
        second = queue.pop_csi_due(0.5)
        assert second is not None and float(second[0]) == 2.0
        assert queue.pop_csi_due(0.5) is None

    def test_nothing_due_returns_none(self):
        queue = SessionQueue(capacity=8)
        queue.push_tof(1.0, 5.0)
        queue.push_csi(1.0, np.ones(2))
        assert queue.pop_tof_due(0.5) is None
        assert queue.pop_csi_due(0.5) is None
        assert len(queue) == 2

    def test_drop_oldest_crosses_lanes(self):
        queue = SessionQueue(capacity=4)
        queue.push_csi(0.3, np.ones(2))
        queue.push_tof(0.1, 5.0)
        queue.push_tof(0.4, 6.0)
        queue.drop_oldest()  # the 0.1 ToF reading is globally oldest
        times, values = queue.pop_tof_due(1.0)
        assert list(times) == [0.4]
        assert queue.pop_csi_due(1.0) is not None

    def test_capacity_and_clear(self):
        queue = SessionQueue(capacity=2)
        queue.push_tof(0.1, 1.0)
        assert not queue.full
        queue.push_csi(0.2, np.ones(2))
        assert queue.full
        queue.clear()
        assert len(queue) == 0 and not queue.full

    def test_state_roundtrip(self):
        queue = SessionQueue(capacity=8)
        queue.push_tof(0.1, 5.0)
        queue.push_csi(0.2, np.arange(4.0))
        restored = SessionQueue(capacity=8)
        restored.load_state_dict(queue.state_dict())
        assert len(restored) == 2
        times, values = restored.pop_tof_due(1.0)
        assert list(times) == [0.1] and list(values) == [5.0]
        payload = restored.pop_csi_due(1.0)
        assert np.array_equal(payload, np.arange(4.0))


class TestStreamConfig:
    def test_defaults_valid(self):
        config = StreamConfig()
        assert config.backpressure in BACKPRESSURE_POLICIES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt_s": 0.0},
            {"horizon_steps": 0},
            {"queue_capacity": 0},
            {"backpressure": "reject"},
            {"idle_timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)


class TestStreamVsBatchEquivalence:
    @pytest.fixture(scope="class")
    def source(self):
        return SimulatedSource(FleetSpec(n_clients=8, duration_s=20.0), seed=17)

    @pytest.fixture(scope="class")
    def batch_results(self, source):
        csi_by_client, tof_times, tof_readings = source.batch_inputs()
        classifier = BatchedMobilityClassifier(source.labels)
        spec = source.spec
        engine = SimulationEngine(TimeGrid.regular(0.0, spec.csi_period_s, spec.n_steps))
        engine.add(
            BatchedSensingSession(classifier, csi_by_client, tof_times, tof_readings)
        )
        return engine.run()

    def config(self, source):
        return StreamConfig(
            dt_s=source.spec.csi_period_s,
            horizon_steps=source.spec.n_steps,
            queue_capacity=256,
        )

    def test_streaming_is_bit_identical_to_batch(self, source, batch_results):
        config = self.config(source)
        router = StreamRouter(BatchedMobilityClassifier(source.labels), config=config)
        stream_results = drive(router, source, config)
        assert estimates_equal(batch_results, stream_results)

    def test_walking_and_static_clients_classify_as_expected(self, batch_results):
        walking = batch_results["client-0"]
        static = batch_results["client-1"]
        assert MobilityMode.MACRO in {e.mode for e in walking}
        assert {e.mode for e in static} == {MobilityMode.STATIC}

    def test_cross_client_arrival_order_within_a_step_is_irrelevant(
        self, source, batch_results
    ):
        """Interleaving across clients may arrive in any order inside one
        step window; only each client's own stream must stay ordered."""
        rng = np.random.default_rng(3)
        observations = list(source)
        shuffled = []
        bucket = []
        dt = source.spec.csi_period_s

        def flush():
            by_client = {}
            for observation in bucket:
                by_client.setdefault(observation.client, []).append(observation)
            order = list(by_client)
            rng.shuffle(order)
            for client in order:
                shuffled.extend(by_client[client])

        current = 0
        for observation in observations:
            window = int(observation.time_s // dt)
            if window != current:
                flush()
                bucket = []
                current = window
            bucket.append(observation)
        flush()
        assert len(shuffled) == len(observations)

        config = self.config(source)
        router = StreamRouter(BatchedMobilityClassifier(source.labels), config=config)
        # Advance only at window boundaries so reordering stays legal.
        for observation in shuffled:
            assert router.offer(observation)
            router.advance(observation.time_s - dt)
        router.advance(config.start_s + (config.horizon_steps - 1) * config.dt_s)
        assert estimates_equal(batch_results, router.results())

    def test_on_estimate_callback_streams_the_same_estimates(self, source, batch_results):
        config = self.config(source)
        live = {label: [] for label in source.labels}
        router = StreamRouter(
            BatchedMobilityClassifier(source.labels),
            config=config,
            on_estimate=lambda client, t, estimate: live[client].append(estimate),
        )
        results = drive(router, source, config)
        assert estimates_equal(results, live)
        assert estimates_equal(batch_results, live)


def make_router(policy="block", queue_capacity=2, recorder=None, **kwargs):
    recorder = recorder if recorder is not None else TelemetryRecorder()
    classifier = BatchedMobilityClassifier(["a", "b"])
    config = StreamConfig(
        dt_s=0.5,
        horizon_steps=100,
        queue_capacity=queue_capacity,
        backpressure=policy,
        **kwargs,
    )
    return StreamRouter(classifier, config=config, recorder=recorder), recorder, config


class TestBackpressure:
    def test_block_refuses_and_counts(self):
        router, recorder, _ = make_router("block")
        assert router.offer(Observation("a", 0.1, "tof", 200.0))
        assert router.offer(Observation("a", 0.12, "tof", 200.1))
        assert not router.offer(Observation("a", 0.14, "tof", 200.2))
        assert counter_total(recorder, "stream.blocked", client="a") == 1.0
        assert counter_total(recorder, "stream.accepted", client="a") == 2.0
        assert router.backlog == 2

    def test_block_clears_after_advance(self):
        router, _, _ = make_router("block")
        router.offer(Observation("a", 0.1, "tof", 200.0))
        router.offer(Observation("a", 0.12, "tof", 200.1))
        assert not router.offer(Observation("a", 0.6, "tof", 200.2))
        router.advance(0.5)  # drains everything due at/before 0.5
        assert router.offer(Observation("a", 0.6, "tof", 200.2))

    def test_drop_oldest_accepts_with_bounded_staleness(self):
        router, recorder, _ = make_router("drop_oldest")
        for t in (0.1, 0.12, 0.14):
            assert router.offer(Observation("a", t, "tof", 200.0))
        assert counter_total(recorder, "stream.dropped", client="a") == 1.0
        assert router.backlog == 2

    def test_shed_session_isolates_the_overloaded_client(self):
        router, recorder, _ = make_router("shed_session")
        assert router.offer(Observation("a", 0.1, "tof", 200.0))
        assert router.offer(Observation("a", 0.12, "tof", 200.1))
        assert not router.offer(Observation("a", 0.14, "tof", 200.2))  # sheds
        assert not router.offer(Observation("a", 0.2, "tof", 200.3))  # refused
        assert counter_total(recorder, "stream.shed_sessions") == 1.0
        assert counter_total(recorder, "stream.shed", client="a") == 2.0
        assert router.n_active_sessions == 1
        # The healthy session is untouched.
        assert router.offer(Observation("b", 0.2, "tof", 199.0))

    def test_shed_pushes_safe_default_hint(self):
        hints = []
        classifier = BatchedMobilityClassifier(["a", "b"])
        config = StreamConfig(
            dt_s=0.5, horizon_steps=10, queue_capacity=1, backpressure="shed_session"
        )
        router = StreamRouter(
            classifier,
            config=config,
            on_estimate=lambda client, t, estimate: hints.append((client, estimate)),
        )
        router.offer(Observation("a", 0.1, "tof", 200.0))
        router.offer(Observation("a", 0.2, "tof", 200.1))
        assert len(hints) == 1
        client, hint = hints[0]
        assert client == "a"
        assert hint.mode is MobilityMode.STATIC
        assert hint.heading is Heading.NONE
        assert not hint.tof_window_full


class TestRejections:
    def test_unknown_client_counted(self):
        router, recorder, _ = make_router()
        assert not router.offer(Observation("nobody", 0.1, "tof", 1.0))
        assert counter_total(recorder, "stream.unknown_client") == 1.0

    def test_late_observation_refused_after_its_step_ran(self):
        router, recorder, _ = make_router(queue_capacity=16)
        router.advance(0.6)  # steps at 0.0 and 0.5 have run
        assert not router.offer(Observation("a", 0.4, "csi", np.ones(4)))
        assert not router.offer(Observation("a", 0.5, "csi", np.ones(4)))
        assert router.offer(Observation("a", 0.51, "csi", np.ones(4)))
        assert counter_total(recorder, "stream.late", client="a") == 2.0

    def test_nothing_is_late_before_the_first_step(self):
        router, recorder, _ = make_router(queue_capacity=16)
        assert router.offer(Observation("a", 0.0, "csi", np.ones(4)))
        assert counter_total(recorder, "stream.late") == 0.0

    @pytest.mark.parametrize("bad_s", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ["csi", "tof"], ids=["csi_observation", "tof_observation"])
    def test_non_finite_timestamp_refused_and_lane_keeps_flowing(self, kind, bad_s):
        router, recorder, _ = make_router(queue_capacity=16)
        payload = np.ones(4) if kind == "csi" else 200.0
        assert not router.offer(Observation("a", bad_s, kind, payload))
        assert counter_total(recorder, "stream.invalid_time") == 1.0
        assert counter_total(recorder, "stream.accepted") == 0.0
        assert router.backlog == 0
        # A refused NaN never sits at the head of a lane, so client "a"
        # keeps classifying exactly like client "b".
        for k in range(10):
            t = 0.5 * k
            for client in ("a", "b"):
                assert router.offer(Observation(client, t, "csi", np.ones(4)))
                assert router.offer(Observation(client, t, "tof", 200.0))
            router.advance(t)
        results = router.results()
        assert len(results["a"]) == len(results["b"]) > 0
        assert router.backlog == 0


class TestEvictionAndRevival:
    def test_idle_session_evicted_with_safe_hint(self):
        hints = []
        recorder = TelemetryRecorder()
        classifier = BatchedMobilityClassifier(["a", "b"])
        config = StreamConfig(
            dt_s=0.5, horizon_steps=100, queue_capacity=16, idle_timeout_s=1.0
        )
        router = StreamRouter(
            classifier,
            config=config,
            recorder=recorder,
            on_estimate=lambda client, t, e: hints.append((client, t, e)),
        )
        assert router.offer(Observation("a", 0.0, "csi", np.ones(4)))
        router.advance(3.0)
        assert router.evicted.all()
        assert router.n_active_sessions == 0
        assert counter_total(recorder, "stream.evicted") == 2.0
        evicted_hints = [h for h in hints if h[2].mode is MobilityMode.STATIC]
        assert {h[0] for h in evicted_hints} == {"a", "b"}

    def test_fresh_offer_revives_cold(self):
        router, recorder, _ = make_router(queue_capacity=16, idle_timeout_s=1.0)
        router.offer(Observation("a", 0.0, "csi", np.ones(4)))
        router.advance(3.0)
        assert router.evicted[0]
        assert router.offer(Observation("a", 3.2, "csi", np.ones(4)))
        assert not router.evicted[0]
        assert counter_total(recorder, "stream.revived", client="a") == 1.0

    def test_backlogged_session_is_not_idle(self):
        router, recorder, _ = make_router(queue_capacity=16, idle_timeout_s=1.0)
        # Queued observation far in the future: activity is old but the
        # queue holds work, so the session must not be evicted.
        assert router.offer(Observation("a", 5.0, "csi", np.ones(4)))
        router.advance(3.0)
        assert not router.evicted[0]
        assert router.evicted[1]  # the genuinely idle one goes

    def test_no_timeout_means_no_eviction(self):
        router, recorder, _ = make_router(queue_capacity=16)
        router.advance(30.0)
        assert not router.evicted.any()
        assert counter_total(recorder, "stream.evicted") == 0.0


class TestLifecycle:
    def test_advance_past_horizon_raises(self):
        router, _, config = make_router(queue_capacity=16)
        end_s = config.start_s + (config.horizon_steps - 1) * config.dt_s
        router.advance(end_s)  # exactly the horizon: fine
        with pytest.raises(RuntimeError, match="horizon"):
            router.advance(end_s + 1.0)

    def test_close_finalizes_and_refuses_further_stepping(self):
        router, _, _ = make_router(queue_capacity=16)
        router.offer(Observation("a", 0.0, "csi", np.ones(4)))
        router.advance(1.0)
        results = router.close()
        assert set(results) == {"a", "b"}
        with pytest.raises(RuntimeError, match="closed"):
            router.advance(2.0)
        with pytest.raises(RuntimeError, match="closed"):
            router.close()

    def test_clock_tracks_next_step(self):
        router, _, _ = make_router(queue_capacity=16)
        assert router.clock_s == 0.0
        router.advance(0.6)
        assert router.clock_s == 1.0

    def test_gauges_published_on_advance(self):
        router, recorder, _ = make_router(queue_capacity=16)
        router.offer(Observation("a", 5.0, "csi", np.ones(4)))
        router.advance(0.6)
        assert recorder.metrics.gauge("stream.backlog").value == 1.0
        assert recorder.metrics.gauge("stream.sessions_active").value == 2.0

    def test_null_recorder_counts_nothing(self):
        # The default recorder is the null one: the hot path must not
        # build metrics, and rejections still return False.
        classifier = BatchedMobilityClassifier(["a"])
        router = StreamRouter(
            classifier, config=StreamConfig(dt_s=0.5, horizon_steps=10, queue_capacity=1)
        )
        assert router.offer(Observation("a", 0.1, "tof", 1.0))
        assert not router.offer(Observation("a", 0.2, "tof", 2.0))


class TestReplaySource:
    """CSI Tool captures replayed through the streaming service."""

    def _write_log(self, tmp_path, timestamps_us, name="capture.dat"):
        from repro.io.csitool import CsiRecord, N_SUBCARRIERS, write_csitool_log

        rng = np.random.default_rng(7)
        records = []
        for t in timestamps_us:
            csi = np.round(rng.uniform(-100, 100, (N_SUBCARRIERS, 2, 3))) + 1j * np.round(
                rng.uniform(-100, 100, (N_SUBCARRIERS, 2, 3))
            )
            records.append(
                CsiRecord(
                    timestamp_low=t,
                    bfee_count=1,
                    n_rx=3,
                    n_tx=2,
                    rssi_a=40,
                    rssi_b=42,
                    rssi_c=38,
                    noise=-92,
                    agc=30,
                    antenna_sel=0b100100,
                    rate=0x1234,
                    csi=csi,
                )
            )
        path = tmp_path / name
        write_csitool_log(records, path)
        return path

    def test_replayed_capture_streams_through_the_router(self, tmp_path):
        from repro.io.stream import replay_source

        timestamps = [int(t * 1e6) for t in np.arange(0.0, 10.0, 0.5)]
        path = self._write_log(tmp_path, timestamps)
        observations = list(replay_source(path, client="a"))
        assert len(observations) == len(timestamps)
        assert all(o.kind == "csi" and o.client == "a" for o in observations)

        classifier = BatchedMobilityClassifier(["a"])
        config = StreamConfig(dt_s=0.5, horizon_steps=20, queue_capacity=64)
        router = StreamRouter(classifier, config=config)
        results = drive(router, observations, config)
        assert len(results["a"]) == 19  # first sample only seeds the baseline

    def test_nonmonotonic_records_are_skipped_and_counted(self, tmp_path):
        from repro.io.stream import replay_source

        timestamps = [0, 500_000, 400_000, 1_000_000]  # one out-of-order
        path = self._write_log(tmp_path, timestamps)
        recorder = TelemetryRecorder()
        observations = list(replay_source(path, client="a", recorder=recorder))
        assert len(observations) == 3
        assert counter_total(recorder, "io.csitool.nonmonotonic") == 1.0

    def test_rebase_to_service_clock(self, tmp_path):
        from repro.io.stream import replay_source

        # The capture's absolute clock is arbitrary: the stream is rebased
        # so the first record lands exactly at start_s on the service clock.
        path = self._write_log(tmp_path, [3_000_000, 3_500_000])
        observations = list(replay_source(path, client="a", start_s=100.0))
        assert observations[0].time_s == pytest.approx(100.0)
        assert observations[1].time_s == pytest.approx(100.5)


class TestFleetSpecAndSource:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(n_clients=0)
        with pytest.raises(ValueError):
            FleetSpec(duration_s=0.0)
        with pytest.raises(ValueError):
            FleetSpec(walking_every=0)

    def test_source_is_deterministic(self):
        a = [o.time_s for o in SimulatedSource(FleetSpec(n_clients=4), seed=5)]
        b = [o.time_s for o in SimulatedSource(FleetSpec(n_clients=4), seed=5)]
        assert a == b

    def test_observations_time_ordered(self):
        observations = list(SimulatedSource(FleetSpec(n_clients=4, duration_s=5.0)))
        times = [o.time_s for o in observations]
        assert times == sorted(times)
