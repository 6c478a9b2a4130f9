"""The self-healing runtime: every known failure must be a non-event.

Pins the three resilience contracts end to end:

* **rollover golden** — a service on a deliberately tiny grid horizon
  produces estimates bit-identical to a single long-grid run, with the
  late-observation guard still armed across the segment boundary;
* **kill/recover golden** — a hard kill at an *arbitrary* service step
  (mid-segment, across a rollover, before the first cadence checkpoint)
  followed by ``ResilientService.recover`` continues bit-identically
  with the uninterrupted run, even when the newest artifact on disk has
  been corrupted;
* **source supervision** — a flaky source retries with deterministic
  backoff and never re-feeds a consumed observation; a persistently
  failing one trips the circuit breaker; affected clients get counted
  safe-default degraded hints.
"""

import json
import os

import pytest

from repro.core.batched import BatchedMobilityClassifier
from repro.core.hints import MobilityMode
from repro.faults import (
    CheckpointCorruptionFault,
    InjectedFault,
    ServiceKilled,
    ServiceKillFault,
    SourceFault,
)
from repro.resilience import (
    CheckpointManager,
    ResilienceConfig,
    ResilientService,
    SourceSpec,
    SupervisedSource,
    artifact_name,
    list_artifacts,
    scan_checkpoints,
)
from repro.sim.supervisor import SupervisorConfig
from repro.stream import (
    CorruptCheckpoint,
    FleetSpec,
    HorizonExhausted,
    Observation,
    SimulatedSource,
    StreamConfig,
    StreamRouter,
    read_checkpoint_state,
    save_checkpoint,
)
from repro.telemetry.recorder import TelemetryRecorder

SPEC = FleetSpec(n_clients=8, duration_s=20.0)
DURATION_S = SPEC.duration_s
DT_S = SPEC.csi_period_s


def fresh_source():
    return SimulatedSource(SPEC, seed=17)


LABELS = fresh_source().labels


def fleet_spec():
    return SourceSpec("fleet", fresh_source, clients=tuple(LABELS))


def make_service(tmp_path, horizon_steps=7, recorder=None, on_estimate=None,
                 kill=None, every_s=2.0, keep=3, name="ckpt"):
    return ResilientService(
        BatchedMobilityClassifier(list(LABELS)),
        StreamConfig(dt_s=DT_S, horizon_steps=horizon_steps),
        resilience=ResilienceConfig(
            checkpoint_dir=os.path.join(str(tmp_path), name),
            checkpoint_every_s=every_s,
            keep_checkpoints=keep,
        ),
        recorder=recorder if recorder is not None else TelemetryRecorder(),
        on_estimate=on_estimate,
        kill=kill,
    )


def collect(sink):
    def on_estimate(label, time_s, estimate):
        sink.append((label, time_s, estimate))

    return on_estimate


def streams_equal(a, b):
    if len(a) != len(b):
        return False
    for (la, ta, ea), (lb, tb, eb) in zip(a, b):
        if la != lb or ta != tb or ea.to_dict() != eb.to_dict():
            return False
    return True


@pytest.fixture(scope="module")
def golden():
    """The uninterrupted single-long-grid estimate stream."""
    import tempfile

    got = []
    with tempfile.TemporaryDirectory() as d:
        service = ResilientService(
            BatchedMobilityClassifier(list(LABELS)),
            StreamConfig(dt_s=DT_S, horizon_steps=10_000),
            resilience=ResilienceConfig(checkpoint_dir=os.path.join(d, "g")),
            on_estimate=collect(got),
        )
        service.run([fleet_spec()], until_s=DURATION_S)
        assert service.rollovers == 0
    return got


class TestHorizonExhausted:
    def test_typed_signal_carries_grid_facts(self):
        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=4),
        )
        with pytest.raises(HorizonExhausted) as excinfo:
            router.advance(10.0)
        assert excinfo.value.end_s == pytest.approx(1.5)
        assert excinfo.value.n_steps == 4
        # The historical message survives for text-matching callers.
        assert "stream horizon exhausted" in str(excinfo.value)
        assert "checkpoint and restore" in str(excinfo.value)

    def test_is_a_runtime_error(self):
        assert issubclass(HorizonExhausted, RuntimeError)

    def test_due_steps_run_before_the_raise(self):
        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=4),
        )
        with pytest.raises(HorizonExhausted):
            router.advance(10.0)
        assert router.stepper.next_index == 4  # no work was lost


class TestRolloverGolden:
    def test_rollover_is_bit_identical_to_long_grid(self, golden, tmp_path):
        got = []
        service = make_service(tmp_path, horizon_steps=7, on_estimate=collect(got))
        service.run([fleet_spec()], until_s=DURATION_S)
        assert service.rollovers >= 2
        assert streams_equal(got, golden)

    def test_rollover_counted_and_traced(self, tmp_path):
        recorder = TelemetryRecorder()
        service = make_service(tmp_path, horizon_steps=7, recorder=recorder)
        service.run([fleet_spec()], until_s=DURATION_S)
        counters = {
            m.name: m.value
            for m in recorder.metrics.metrics()
            if m.name == "resilience.rollovers"
        }
        assert counters["resilience.rollovers"] == service.rollovers
        assert sum(
            1 for e in recorder.events if e.kind == "service_rollover"
        ) == service.rollovers

    def test_late_guard_survives_the_segment_boundary(self, tmp_path):
        """After a rollover ``next_index`` is 0 again; the late-floor must
        still refuse observations from the previous segment."""
        recorder = TelemetryRecorder()
        service = make_service(tmp_path, horizon_steps=4, recorder=recorder)
        service.advance(5.0)  # forces rollovers past t=1.5 and t=3.5
        assert service.rollovers >= 1
        assert service.router.late_floor_s is not None
        stale = Observation(LABELS[0], 0.2, "tof", 200.0)
        assert not service.offer(stale)
        assert any(
            m.name == "stream.late" and m.value > 0
            for m in recorder.metrics.metrics()
        )

    def test_late_floor_round_trips_through_state_dict(self):
        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=10),
        )
        router.late_floor_s = 3.5
        other = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=10),
        )
        other.load_state_dict(router.state_dict())
        assert other.late_floor_s == 3.5
        # v1 artifacts predate the floor: absent key means fresh.
        state = router.state_dict()
        del state["late_floor_s"]
        other.load_state_dict(state)
        assert other.late_floor_s is None


class TestRolloverHistory:
    """A rollover starts the next segment with an empty estimate history:
    ``results()`` is the current segment only, and artifacts stop growing
    with uptime (delivered estimates live on in ``service.estimates``)."""

    def test_results_hold_only_the_current_segment(self, tmp_path):
        service = make_service(tmp_path, horizon_steps=7)
        seen_rollovers = set()
        for observation in fresh_source():
            service.offer(observation)
            service.advance(observation.time_s - DT_S)
            start_s = service.router.config.start_s
            for stream in service.results().values():
                assert all(start_s <= e.time_s < service.clock_s for e in stream)
            seen_rollovers.add(service.rollovers)
        assert {1, 2, 3} <= seen_rollovers
        current = sum(len(stream) for stream in service.results().values())
        delivered = sum(len(stream) for stream in service.estimates.values())
        assert 0 < current <= 7 * len(LABELS) < delivered

    def test_artifact_size_does_not_grow_across_segments(self, tmp_path):
        """Same in-segment offset, segments 1 and 3: same size within 5%."""
        horizon_steps = 7
        segment_s = horizon_steps * DT_S
        offset_s = 2.0
        service = make_service(tmp_path, horizon_steps=horizon_steps, every_s=100.0)
        sizes = {}
        for observation in fresh_source():
            service.offer(observation)
            service.advance(observation.time_s - DT_S)
            for segment in (1, 3):
                if segment not in sizes and service.clock_s >= segment * segment_s + offset_s:
                    assert service.rollovers == segment
                    sizes[segment] = os.path.getsize(service.checkpoint_now())
        assert sizes[3] == pytest.approx(sizes[1], rel=0.05)


class TestCheckpointManager:
    def test_artifact_names_sort_by_service_clock(self):
        names = [artifact_name(t) for t in (0.0, 2.5, 10.0, 100.0, 1000.5)]
        assert names == sorted(names)

    def test_cadence_schedules_and_advances(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "c"), every_s=2.0)
        assert manager.next_due_s is None  # unscheduled: never due
        assert not manager.due(100.0)
        manager.schedule_from(0.0)
        assert not manager.due(1.9)
        assert manager.due(2.0)

    def test_save_advances_cadence_past_the_clock(self, tmp_path):
        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=100),
        )
        manager = CheckpointManager(str(tmp_path / "c"), every_s=2.0)
        manager.schedule_from(0.0)
        router.advance(6.6)  # clock now 7.0: three cadence instants behind
        manager.save(router)
        assert manager.next_due_s == pytest.approx(8.0)  # no stale backlog

    def test_retention_keeps_last_k(self, tmp_path):
        recorder = TelemetryRecorder()
        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=100),
        )
        manager = CheckpointManager(
            str(tmp_path / "c"), every_s=1.0, keep=2, recorder=recorder
        )
        for until_s in (1.0, 2.0, 3.0, 4.0):
            router.advance(until_s)
            manager.save(router)
        artifacts = list_artifacts(str(tmp_path / "c"))
        assert len(artifacts) == 2
        pruned = sum(
            m.value
            for m in recorder.metrics.metrics()
            if m.name == "resilience.checkpoints_pruned"
        )
        assert pruned == 2

    def test_scan_returns_newest_valid(self, tmp_path):
        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=100),
        )
        manager = CheckpointManager(str(tmp_path / "c"), every_s=1.0)
        router.advance(1.0)
        manager.save(router)
        router.advance(2.0)
        newest = manager.save(router)
        state, path, rejected = scan_checkpoints(str(tmp_path / "c"))
        assert path == newest
        assert rejected == []
        assert state["router"]["next_index"] == router.stepper.next_index

    def test_scan_falls_back_past_a_corrupt_newest(self, tmp_path):
        recorder = TelemetryRecorder()
        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=100),
        )
        manager = CheckpointManager(str(tmp_path / "c"), every_s=1.0)
        router.advance(1.0)
        older = manager.save(router)
        router.advance(2.0)
        newest = manager.save(router)
        CheckpointCorruptionFault(mode="truncate").corrupt(newest)
        state, path, rejected = scan_checkpoints(str(tmp_path / "c"), recorder)
        assert path == older
        assert rejected == [newest]
        assert any(
            m.name == "resilience.corrupt_artifacts" and m.value == 1
            for m in recorder.metrics.metrics()
        )
        assert any(e.kind == "checkpoint_rejected" for e in recorder.events)

    def test_scan_raises_when_nothing_is_trustworthy(self, tmp_path):
        directory = tmp_path / "c"
        directory.mkdir()
        (directory / "service-0000000001000.ckpt").write_bytes(b"rot")
        with pytest.raises(CorruptCheckpoint, match="no valid checkpoint"):
            scan_checkpoints(str(directory))

    def test_scan_of_empty_directory_raises(self, tmp_path):
        with pytest.raises(CorruptCheckpoint, match="no artifacts"):
            scan_checkpoints(str(tmp_path / "missing"))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="every_s"):
            CheckpointManager(str(tmp_path / "c"), every_s=0.0)
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(str(tmp_path / "c"), every_s=1.0, keep=0)
        with pytest.raises(ValueError, match="checkpoint_every_s"):
            ResilienceConfig(checkpoint_dir="x", checkpoint_every_s=-1.0)
        with pytest.raises(ValueError, match="keep_checkpoints"):
            ResilienceConfig(checkpoint_dir="x", keep_checkpoints=0)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ResilienceConfig(checkpoint_dir="")


class TestKillRecoverGolden:
    def run_killed_then_recovered(self, tmp_path, kill_step, golden,
                                  corrupt_newest=False):
        pre = []
        service = make_service(
            tmp_path, on_estimate=collect(pre),
            kill=ServiceKillFault(at_step=kill_step),
        )
        with pytest.raises(ServiceKilled):
            service.run([fleet_spec()], until_s=DURATION_S)
        assert service.total_steps == kill_step
        if corrupt_newest:
            artifacts = list_artifacts(service.checkpoints.directory)
            CheckpointCorruptionFault(mode="flip_byte").corrupt(artifacts[-1])
        post = []
        recovered = ResilientService.recover(
            service.resilience, on_estimate=collect(post)
        )
        resume_s = recovered.clock_s
        recovered.run([fleet_spec()], until_s=DURATION_S)
        merged = [x for x in pre if x[1] < resume_s] + post
        assert streams_equal(merged, golden), f"diverged for kill at {kill_step}"
        return recovered

    @pytest.mark.parametrize("kill_step", [1, 3, 17, 29, 40])
    def test_kill_at_arbitrary_step_resumes_bit_identically(
        self, tmp_path, kill_step, golden
    ):
        self.run_killed_then_recovered(tmp_path, kill_step, golden)

    def test_kill_across_rollover_with_corrupt_newest_artifact(
        self, tmp_path, golden
    ):
        """The hardest shape at once: the kill lands past several segment
        boundaries AND the newest artifact is rotten, so recovery must
        fall back one artifact and then roll over again to catch up."""
        recovered = self.run_killed_then_recovered(
            tmp_path, 29, golden, corrupt_newest=True
        )
        assert recovered.rollovers >= 1

    def test_recovery_is_counted_and_traced(self, tmp_path, golden):
        service = make_service(tmp_path, kill=ServiceKillFault(at_step=17))
        with pytest.raises(ServiceKilled):
            service.run([fleet_spec()], until_s=DURATION_S)
        recorder = TelemetryRecorder()
        recovered = ResilientService.recover(service.resilience, recorder=recorder)
        assert recovered.total_steps <= 17
        assert any(
            m.name == "resilience.recoveries" and m.value == 1
            for m in recorder.metrics.metrics()
        )
        assert any(e.kind == "service_recovered" for e in recorder.events)

    def test_kill_at_step_zero_fires_on_a_call_with_no_step_due(self, tmp_path):
        service = make_service(tmp_path, kill=ServiceKillFault(at_step=0))
        with pytest.raises(ServiceKilled):
            service.advance(-1.0)
        assert service.total_steps == 0

    def test_fresh_service_writes_recovery_point_zero(self, tmp_path):
        service = make_service(tmp_path)
        artifacts = list_artifacts(service.checkpoints.directory)
        assert len(artifacts) == 1  # recoverable before the first step

    def test_recover_refuses_an_empty_directory(self, tmp_path):
        with pytest.raises(CorruptCheckpoint):
            ResilientService.recover(
                ResilienceConfig(checkpoint_dir=str(tmp_path / "nothing"))
            )

    def test_checkpoint_cadence_lands_on_sim_time_instants(self, tmp_path):
        service = make_service(tmp_path, every_s=2.0, keep=100)
        service.run([fleet_spec()], until_s=DURATION_S)
        names = [os.path.basename(p) for p in
                 list_artifacts(service.checkpoints.directory)]
        # service-<millis>.ckpt stamps: baseline at 0, every 2 s while
        # running, and one final artifact at the terminal clock.
        stamps = [int(n[len("service-"):-len(".ckpt")]) for n in names]
        assert stamps[0] == 0
        assert all(stamp % 2000 == 0 for stamp in stamps[:-1])
        assert stamps[-1] >= int(DURATION_S * 1000)


class TestSupervisedSource:
    def trace(self, n=10):
        return [Observation("a", 0.1 * (i + 1), "tof", 200.0 + i) for i in range(n)]

    def test_clean_source_delivers_everything(self):
        spec = SourceSpec("s", lambda: list(self.trace()), clients=("a",))
        source = SupervisedSource(spec)
        got = []
        while source.peek() is not None:
            got.append(source.pop())
        assert len(got) == 10
        assert source.consumed == 10
        assert source.exhausted and not source.shed

    def test_retry_fast_forwards_without_duplicates(self):
        fault = SourceFault(at_index=4, n_failures=1)
        spec = SourceSpec("s", lambda: fault.wrap(iter(self.trace())), clients=("a",))
        recorder = TelemetryRecorder()
        source = SupervisedSource(
            spec,
            policy=SupervisorConfig(policy="retry", max_retries=2,
                                    backoff_base_s=0.05),
            recorder=recorder,
        )
        got = []
        while source.peek() is not None:
            got.append(source.pop())
        times = [o.time_s for o in got]
        assert times == sorted(set(times))  # no duplicates, still ordered
        assert source.failures == 0  # reset once delivery resumed
        assert any(
            m.name == "resilience.source_retries" and m.value == 1
            for m in recorder.metrics.metrics()
        )
        assert any(e.kind == "source_restored" for e in recorder.events)

    def test_backoff_window_drops_are_counted(self):
        fault = SourceFault(at_index=4, n_failures=1)
        spec = SourceSpec("s", lambda: fault.wrap(iter(self.trace())), clients=("a",))
        recorder = TelemetryRecorder()
        source = SupervisedSource(
            spec,
            policy=SupervisorConfig(policy="retry", max_retries=2,
                                    backoff_base_s=0.25),
            recorder=recorder,
        )
        got = []
        while source.peek() is not None:
            got.append(source.pop())
        # Failure struck after delivering t=0.1..0.4; backoff until 0.65
        # drops t=0.5 and 0.6.
        dropped = sum(
            m.value
            for m in recorder.metrics.metrics()
            if m.name == "resilience.source_dropped"
        )
        assert dropped == 2
        assert [round(o.time_s, 1) for o in got[-4:]] == [0.7, 0.8, 0.9, 1.0]

    def test_circuit_breaker_sheds_after_max_retries(self):
        fault = SourceFault(at_index=4, n_failures=10)
        spec = SourceSpec("s", lambda: fault.wrap(iter(self.trace())), clients=("a",))
        outages = []
        recorder = TelemetryRecorder()
        source = SupervisedSource(
            spec,
            policy=SupervisorConfig(policy="retry", max_retries=2,
                                    backoff_base_s=0.05),
            recorder=recorder,
            on_outage=lambda s, t, terminal: outages.append((s.name, terminal)),
        )
        got = []
        while source.peek() is not None:
            got.append(source.pop())
        assert source.shed
        assert len(got) == 4  # everything before the poisoned index
        assert outages == [("s", False), ("s", False), ("s", True)]
        assert any(
            m.name == "resilience.sources_shed" and m.value == 1
            for m in recorder.metrics.metrics()
        )

    def test_resume_at_cursor_skips_consumed_items(self):
        spec = SourceSpec("s", lambda: list(self.trace()), clients=("a",))
        source = SupervisedSource(spec, resume_at=6)
        got = []
        while source.peek() is not None:
            got.append(source.pop())
        assert [round(o.time_s, 1) for o in got] == [0.7, 0.8, 0.9, 1.0]
        assert source.consumed == 10

    def test_degraded_hints_served_while_source_down(self, tmp_path):
        fault = SourceFault(at_index=40, n_failures=1)
        spec = SourceSpec(
            "fleet", lambda: fault.wrap(fresh_source()), clients=tuple(LABELS)
        )
        got = []
        recorder = TelemetryRecorder()
        service = make_service(tmp_path, recorder=recorder, on_estimate=collect(got))
        service.run([spec], until_s=DURATION_S)
        hints = sum(
            m.value
            for m in recorder.metrics.metrics()
            if m.name == "resilience.degraded_hints"
        )
        assert hints == len(LABELS)  # one outage x full client list
        degraded = [e for (_l, _t, e) in got if not e.tof_window_full]
        assert degraded and all(
            e.mode is MobilityMode.STATIC for e in degraded[: len(LABELS)]
        )


class TestChaosInjectors:
    def test_source_fault_budget_is_shared_across_wraps(self):
        fault = SourceFault(at_index=2, n_failures=2)
        items = list(range(5))
        for attempt in range(2):
            with pytest.raises(InjectedFault):
                list(fault.wrap(iter(items)))
        assert fault.n_fired == 2
        assert list(fault.wrap(iter(items))) == items  # budget spent

    def test_source_fault_seeded_arm_is_deterministic(self):
        a = SourceFault(seed=7)
        b = SourceFault(seed=7)
        a.arm(100)
        b.arm(100)
        assert a.at_index == b.at_index

    def test_corruption_fault_modes(self, tmp_path):
        for mode in ("truncate", "flip_byte", "wrong_format"):
            path = tmp_path / f"{mode}.ckpt"
            router = StreamRouter(
                BatchedMobilityClassifier(["a"]),
                config=StreamConfig(dt_s=0.5, horizon_steps=10),
            )
            from repro.stream import save_checkpoint

            save_checkpoint(router, path)
            fault = CheckpointCorruptionFault(mode=mode)
            fault.corrupt(str(path))
            assert fault.n_fired == 1
            with pytest.raises((CorruptCheckpoint, ValueError)):
                from repro.stream import load_checkpoint

                load_checkpoint(path)

    def test_corruption_fault_damages_the_digest_covered_region(self, tmp_path):
        """``flip_byte`` lands past the fixed header, where the sha256
        covers it; ``wrong_format`` writes foreign bytes, not a pickle."""
        from repro.stream.checkpoint import FIXED_HEADER_BYTES

        router = StreamRouter(
            BatchedMobilityClassifier(["a"]),
            config=StreamConfig(dt_s=0.5, horizon_steps=10),
        )
        path = tmp_path / "flip.ckpt"
        save_checkpoint(router, str(path))
        assert (path.stat().st_size * 2) // 3 >= FIXED_HEADER_BYTES
        CheckpointCorruptionFault(mode="flip_byte").corrupt(str(path))
        with pytest.raises(CorruptCheckpoint, match="integrity"):
            read_checkpoint_state(str(path))
        foreign = tmp_path / "foreign.ckpt"
        save_checkpoint(router, str(foreign))
        CheckpointCorruptionFault(mode="wrong_format").corrupt(str(foreign))
        assert json.loads(foreign.read_text(encoding="utf-8"))["format"] == "not.a.checkpoint"
        with pytest.raises(CorruptCheckpoint, match="not a repro.stream.checkpoint"):
            read_checkpoint_state(str(foreign))

    def test_corruption_fault_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CheckpointCorruptionFault(mode="set-on-fire")

    def test_service_kill_fault_fires_once(self):
        kill = ServiceKillFault(at_step=5)
        assert not kill.due(4)
        assert kill.due(5)
        with pytest.raises(ServiceKilled):
            kill.fire()
        assert kill.n_fired == 1
        assert not kill.due(6)  # a crash only happens once

    def test_service_kill_fault_seeded_arm(self):
        a = ServiceKillFault(seed=3)
        b = ServiceKillFault(seed=3)
        a.arm(50)
        b.arm(50)
        assert a.at_step == b.at_step
        assert 1 <= a.at_step <= 50


class TestCampaignExperiment:
    def test_quick_campaign_meets_all_slos(self, tmp_path):
        from repro.experiments import ext_resilience

        report = tmp_path / "report.json"
        result = ext_resilience.run(
            n_clients=16,
            duration_s=12.0,
            report_json=str(report),
            workdir=str(tmp_path / "campaign"),
        )
        assert result.ok, result.slo_breaches
        assert result.rollover_equivalent
        assert result.survivors_bit_identical
        assert result.nominal_losses == 0
        assert 0 <= result.recovery_replayed_steps <= result.recovery_bound_steps
        import json

        persisted = json.loads(report.read_text())
        assert persisted["ok"] is True
        assert persisted["chaos_counters"]["resilience.recoveries"] == 1
