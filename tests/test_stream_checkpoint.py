"""Checkpoint/resume of the streaming service: kill it, restore it, and
the estimates must be bit-identical to the run that never died.

Covers the happy path, the versioned-artifact guards, hostile and
damaged bytes (nothing in them may run; every failure is a refusal), and
the two nasty
resume shapes the supervision machinery creates: a checkpoint holding a
*quarantined* member (must stay quarantined, record intact) and one
holding a *suspended* member with a queue backlog (must resume and drain
the backlog exactly like the uninterrupted service).
"""

import hashlib
import json
import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedMobilityClassifier
from repro.faults import SessionCrashFault
from repro.sim import FailureRecord
from repro.sim.supervisor import SupervisorConfig
from repro.stream import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CorruptCheckpoint,
    FleetSpec,
    Observation,
    SimulatedSource,
    StreamConfig,
    StreamRouter,
    checkpoint_state,
    load_checkpoint,
    restore_router,
    save_checkpoint,
)
from repro.stream.checkpoint import CHECKPOINT_MAGIC, FIXED_HEADER_BYTES
from repro.telemetry.recorder import TelemetryRecorder

SPEC = FleetSpec(n_clients=8, duration_s=20.0)
CONFIG = StreamConfig(
    dt_s=SPEC.csi_period_s, horizon_steps=SPEC.n_steps, queue_capacity=256
)
END_S = CONFIG.start_s + (SPEC.n_steps - 1) * CONFIG.dt_s


def fresh_source():
    return SimulatedSource(SPEC, seed=17)


def make_router(recorder=None, supervisor=None, member_faults=None, on_estimate=None):
    classifier = BatchedMobilityClassifier(fresh_source().labels)
    return StreamRouter(
        classifier,
        config=CONFIG,
        recorder=recorder if recorder is not None else TelemetryRecorder(),
        supervisor=supervisor,
        member_faults=member_faults,
        on_estimate=on_estimate,
    )


def run_stream(
    router, observations, cut_s=None, tmp_path=None, recorder=None, on_restore=None
):
    """Drive the trace; if ``cut_s`` is set, kill and restore there."""
    restarted = False
    for observation in observations:
        if cut_s is not None and not restarted and observation.time_s >= cut_s:
            path = tmp_path / "service.ckpt"
            save_checkpoint(router, path)
            del router
            router = load_checkpoint(
                path, recorder=recorder if recorder is not None else TelemetryRecorder()
            )
            if on_restore is not None:
                on_restore(router)
            restarted = True
        router.offer(observation)
        router.advance(observation.time_s - CONFIG.dt_s)
    router.advance(END_S)
    return router


def split_artifact(data):
    """A v3 artifact's JSON header (parsed) and its buffer bytes."""
    (header_len,) = struct.unpack_from("<Q", data, 12)
    start = FIXED_HEADER_BYTES + header_len
    return json.loads(data[FIXED_HEADER_BYTES:start]), data[start:]


def pack_artifact(header, body):
    """Re-pack a (possibly lying) header over ``body`` with a matching
    digest, as a forger could."""
    text = json.dumps(header).encode()
    text += b" " * (-(FIXED_HEADER_BYTES + len(text)) % 16)
    rest = text + body
    return (
        struct.pack(
            "<8sIQ32s",
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            len(text),
            hashlib.sha256(rest).digest(),
        )
        + rest
    )


def results_equal(a, b):
    """Deep equality across estimate streams *and* failure records."""
    if set(a) != set(b):
        return False
    for label in a:
        x, y = a[label], b[label]
        if isinstance(x, FailureRecord) or isinstance(y, FailureRecord):
            if not (isinstance(x, FailureRecord) and isinstance(y, FailureRecord)):
                return False
            if x.to_dict() != y.to_dict():
                return False
            continue
        if len(x) != len(y):
            return False
        for ex, ey in zip(x, y):
            if ex.to_dict() != ey.to_dict():
                return False
    return True


class TestHappyPathResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        baseline = run_stream(make_router(), fresh_source()).results()
        resumed = run_stream(
            make_router(), fresh_source(), cut_s=9.3, tmp_path=tmp_path
        ).results()
        assert results_equal(baseline, resumed)

    def test_resume_at_several_cut_points(self, tmp_path):
        baseline = run_stream(make_router(), fresh_source()).results()
        for cut_s in (0.2, 5.0, 17.8):
            resumed = run_stream(
                make_router(), fresh_source(), cut_s=cut_s, tmp_path=tmp_path
            ).results()
            assert results_equal(baseline, resumed), f"diverged for cut at {cut_s}"

    def test_resume_preserves_collected_estimates(self, tmp_path):
        router = make_router()
        observations = list(fresh_source())
        mid = len(observations) // 2
        for observation in observations[:mid]:
            router.offer(observation)
            router.advance(observation.time_s - CONFIG.dt_s)
        pre_counts = {k: len(v) for k, v in router.results().items()}
        assert sum(pre_counts.values()) > 0
        path = tmp_path / "svc.ckpt"
        save_checkpoint(router, path)
        restored = load_checkpoint(path)
        assert {k: len(v) for k, v in restored.results().items()} == pre_counts

    def test_resume_continues_at_the_same_step(self, tmp_path):
        router = make_router()
        router.advance(5.2)
        path = tmp_path / "svc.ckpt"
        save_checkpoint(router, path)
        restored = load_checkpoint(path)
        assert restored.stepper.next_index == router.stepper.next_index
        assert restored.clock_s == router.clock_s

    def test_queued_backlog_survives_the_restart(self, tmp_path):
        router = make_router()
        for t in (0.6, 0.7, 0.8):
            assert router.offer(Observation("client-0", t, "tof", 200.0 + t))
        assert router.backlog == 3
        path = tmp_path / "svc.ckpt"
        save_checkpoint(router, path)
        restored = load_checkpoint(path)
        assert restored.backlog == 3


class TestArtifactGuards:
    def test_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="not a"):
            restore_router({"format": "some.other.artifact", "version": 1})

    def test_rejects_newer_version(self):
        state = checkpoint_state(make_router())
        state["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            restore_router(state)

    def test_rejects_cohort_mismatch(self):
        state = checkpoint_state(make_router())
        other = StreamRouter(
            BatchedMobilityClassifier(["x", "y"]), config=CONFIG
        )
        with pytest.raises(ValueError, match="labels"):
            other.load_state_dict(state["router"])

    def test_artifact_is_a_digested_envelope_over_a_plain_dict(self, tmp_path):
        """Since v3 the on-disk artifact is a fixed header (magic, version,
        JSON header length, sha256 of the rest) over a JSON header that
        holds the plain versioned config/state tree and a buffer table."""
        import hashlib
        import json
        import struct

        router = make_router()
        path = tmp_path / "svc.ckpt"
        save_checkpoint(router, path)
        data = path.read_bytes()
        magic, version, header_len, digest = struct.unpack_from("<8sIQ32s", data)
        assert magic == CHECKPOINT_MAGIC
        assert version == CHECKPOINT_VERSION
        assert FIXED_HEADER_BYTES == struct.calcsize("<8sIQ32s")
        assert digest == hashlib.sha256(data[FIXED_HEADER_BYTES:]).digest()
        header = json.loads(data[FIXED_HEADER_BYTES : FIXED_HEADER_BYTES + header_len])
        state = header["state"]
        assert state["format"] == CHECKPOINT_FORMAT
        assert state["version"] == CHECKPOINT_VERSION
        assert isinstance(state["stream_config"], dict)
        assert isinstance(state["classifier_config"], dict)
        assert isinstance(state["supervisor_config"], dict)
        assert state["router"]["labels"] == router.labels
        from repro import __version__

        assert state["repro_version"] == __version__
        for entry in header["buffers"]:
            assert set(entry) == {"name", "dtype", "shape", "offset"}
            assert entry["offset"] % 16 == 0
            assert entry["dtype"][1] in "biufc"

    def test_restored_config_matches(self, tmp_path):
        router = make_router()
        path = tmp_path / "svc.ckpt"
        save_checkpoint(router, path)
        restored = load_checkpoint(path)
        assert restored.config == router.config
        assert restored.supervisor_config == router.supervisor_config
        assert restored.classifier.config == router.classifier.config


class TestCorruptArtifacts:
    """Integrity guards: a rotted artifact must be refused loudly, with a
    message that tells a torn file from a flipped bit from a wrong one."""

    def saved(self, tmp_path):
        path = tmp_path / "svc.ckpt"
        save_checkpoint(make_router(), path)
        return path

    def test_truncated_artifact_is_refused(self, tmp_path):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_flipped_byte_fails_the_digest(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        # Flip deep inside the payload so the envelope still unpickles
        # and the sha256 integrity check is what catches it.
        data[(len(data) * 2) // 3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpoint, match="integrity|unpickle|readable"):
            load_checkpoint(path)

    def test_wrong_format_is_a_distinct_refusal(self, tmp_path):
        path = tmp_path / "svc.ckpt"
        path.write_bytes(
            json.dumps({"format": "not.a.checkpoint", "version": 0}).encode()
        )
        with pytest.raises(ValueError, match="not a repro.stream.checkpoint"):
            load_checkpoint(path)

    def test_future_version_is_a_distinct_refusal(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, CHECKPOINT_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="newer"):
            load_checkpoint(path)

    def test_non_pickle_bytes_are_refused(self, tmp_path):
        path = tmp_path / "svc.ckpt"
        path.write_bytes(b"this is not a pickle at all")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_non_dict_pickle_is_refused(self, tmp_path):
        """Any pickle stream is refused as a v1/v2 artifact, unread."""
        path = tmp_path / "svc.ckpt"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="pickle") as excinfo:
            load_checkpoint(path)
        assert not isinstance(excinfo.value, CorruptCheckpoint)

    def test_missing_payload_bytes_are_refused(self, tmp_path):
        """A buffer table pointing past the data is refused even when the
        digest was recomputed to match (the digest is not a signature)."""
        path = self.saved(tmp_path)
        header, body = split_artifact(path.read_bytes())
        header["buffers"][0]["offset"] = len(body) + 16
        path.write_bytes(pack_artifact(header, body))
        with pytest.raises(CorruptCheckpoint, match="past the end"):
            load_checkpoint(path)

    def test_distinct_messages_per_corruption_mode(self, tmp_path):
        """Operators must be able to tell failure modes apart."""

        def lying_dtype(p):
            header, body = split_artifact(self.saved(tmp_path).read_bytes())
            header["buffers"][0]["dtype"] = "O"
            p.write_bytes(pack_artifact(header, body))

        def rotten(p):
            data = bytearray(self.saved(tmp_path).read_bytes())
            data[-1] ^= 0xFF
            p.write_bytes(bytes(data))

        messages = set()
        for builder in (
            lambda p: p.write_bytes(CHECKPOINT_MAGIC),  # truncated fixed header
            rotten,  # digest mismatch
            lying_dtype,  # valid digest, object dtype
        ):
            path = tmp_path / "bad.ckpt"
            builder(path)
            with pytest.raises(CorruptCheckpoint) as excinfo:
                load_checkpoint(path)
            messages.add(str(excinfo.value).split("artifact")[-1])
        assert len(messages) == 3

    def test_v1_flat_artifact_is_refused_unread(self, tmp_path):
        """A version-1 artifact (a flat pickled state dict) is refused
        with a plain ValueError naming the pickle format."""
        router = make_router()
        router.advance(5.2)
        state = checkpoint_state(router)
        state["version"] = 1
        path = tmp_path / "v1.ckpt"
        path.write_bytes(pickle.dumps(state))
        with pytest.raises(ValueError, match="pickle") as excinfo:
            load_checkpoint(path)
        assert not isinstance(excinfo.value, CorruptCheckpoint)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = self.saved(tmp_path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class _TouchOnUnpickle:
    """Unpickling this creates a file: a stand-in for a hostile payload."""

    def __init__(self, path):
        self.path = Path(path)

    def __reduce__(self):
        return (Path.touch, (self.path,))


class TestUntrustedBytes:
    """Bytes read from disk are untrusted input: nothing in them may run,
    and every way they can be wrong ends in a refusal."""

    def hostile_v2_artifact(self, path, sentinel):
        path.write_bytes(
            pickle.dumps(
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": 2,
                    "sha256": "0" * 64,
                    "payload": b"",
                    "hook": _TouchOnUnpickle(sentinel),
                }
            )
        )

    def test_pickle_artifact_is_refused_without_running_it(self, tmp_path):
        sentinel = tmp_path / "pwned"
        path = tmp_path / "svc.ckpt"
        self.hostile_v2_artifact(path, sentinel)
        with pytest.raises(ValueError, match="pickle"):
            load_checkpoint(path)
        assert not sentinel.exists()

    def test_recovery_refuses_a_pickle_artifact_without_running_it(self, tmp_path):
        from repro.resilience import ResilienceConfig, ResilientService, artifact_name

        sentinel = tmp_path / "pwned"
        directory = tmp_path / "ckpt"
        directory.mkdir()
        self.hostile_v2_artifact(directory / artifact_name(4.0), sentinel)
        with pytest.raises(CorruptCheckpoint, match="pickle"):
            ResilientService.recover(ResilienceConfig(checkpoint_dir=str(directory)))
        assert not sentinel.exists()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_damaged_bytes_only_ever_raise_checkpoint_errors(self, data):
        original = _fuzz_base()
        damage = data.draw(
            st.sampled_from(
                ["flip", "truncate", "append", "offset", "shape", "dtype", "header_len"]
            )
        )
        if damage == "flip":
            index = data.draw(st.integers(0, len(original) - 1))
            mask = data.draw(st.integers(1, 255))
            damaged = bytearray(original)
            damaged[index] ^= mask
            damaged = bytes(damaged)
        elif damage == "truncate":
            damaged = original[: data.draw(st.integers(0, len(original) - 1))]
        elif damage == "append":
            damaged = original + data.draw(st.binary(min_size=1, max_size=64))
        elif damage == "header_len":
            damaged = bytearray(original)
            (header_len,) = struct.unpack_from("<Q", damaged, 12)
            lie = data.draw(st.integers(0, 2**64 - 1).filter(lambda n: n != header_len))
            struct.pack_into("<Q", damaged, 12, lie)
            damaged = bytes(damaged)
        else:
            header, body = split_artifact(original)
            entry = data.draw(st.sampled_from(header["buffers"]))
            if damage == "offset":
                entry["offset"] = len(body) + data.draw(st.integers(1, 2**40))
            elif damage == "shape":
                entry["shape"] = [data.draw(st.integers(-(2**40), -1))] + entry["shape"][1:]
            else:
                entry["dtype"] = data.draw(st.sampled_from(["O", "|O", "<U4", "|V8", "<M8"]))
            damaged = pack_artifact(header, body)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "svc.ckpt"
            path.write_bytes(damaged)
            try:
                load_checkpoint(path)
            except (CorruptCheckpoint, ValueError):
                return
        pytest.fail(f"{damage} damage loaded without complaint")


_FUZZ_BASE = []


def _fuzz_base():
    """A small artifact with history, queued observations and a shed flag."""
    if not _FUZZ_BASE:
        router = make_router()
        observations = list(fresh_source())
        for observation in observations[: len(observations) // 3]:
            router.offer(observation)
            router.advance(observation.time_s - CONFIG.dt_s)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "svc.ckpt"
            save_checkpoint(router, path)
            _FUZZ_BASE.append(path.read_bytes())
    return _FUZZ_BASE[0]


class TestSupervisedResume:
    """Resume with quarantine/suspension state in the artifact."""

    SUPERVISOR = SupervisorConfig(policy="isolate")
    RETRY = SupervisorConfig(policy="retry", max_retries=2, backoff_base_s=0.5)

    def faulted_router(self, supervisor, n_crashes=1, at_step=8):
        return make_router(
            supervisor=supervisor,
            member_faults={
                "client-0": SessionCrashFault(
                    phase="classify", at_step=at_step, n_crashes=n_crashes
                )
            },
        )

    def test_quarantined_member_stays_quarantined(self, tmp_path):
        baseline = run_stream(
            self.faulted_router(self.SUPERVISOR), fresh_source()
        ).results()
        assert isinstance(baseline["client-0"], FailureRecord)

        # Cut AFTER the crash at step 8 (t = 4.0 s) so the quarantine
        # rides inside the artifact.
        resumed_router = run_stream(
            self.faulted_router(self.SUPERVISOR),
            fresh_source(),
            cut_s=6.1,
            tmp_path=tmp_path,
        )
        resumed = resumed_router.results()
        assert isinstance(resumed["client-0"], FailureRecord)
        assert results_equal(baseline, resumed)

    def test_suspended_member_resumes_mid_backlog(self, tmp_path):
        """The artifact captures a suspended member whose queue kept
        buffering; the restored service un-suspends it on schedule and
        drains the backlog bit-identically."""
        baseline = run_stream(
            self.faulted_router(self.RETRY), fresh_source()
        ).results()
        assert not isinstance(baseline["client-0"], FailureRecord)

        # The crash step (8, t=4.0) runs lazily once observations reach
        # 4.5 s; the resume step (4.5 s) runs once they reach 5.0 s.
        # Cutting at 4.7 s therefore checkpoints a *suspended* member —
        # and its queue must hold the ToF backlog buffered meanwhile.
        restored_state = {}

        def capture(router):
            restored_state["suspended"] = dict(
                router.stepper.supervisor.state_dict()["suspended_until"]
            )
            restored_state["backlog"] = len(
                router.queues[router.labels.index("client-0")]
            )

        resumed = run_stream(
            self.faulted_router(self.RETRY),
            fresh_source(),
            cut_s=4.7,
            tmp_path=tmp_path,
            on_restore=capture,
        ).results()
        assert "client-0" in restored_state["suspended"]
        assert restored_state["backlog"] > 0
        assert results_equal(baseline, resumed)

    def test_escalated_quarantine_round_trips(self, tmp_path):
        supervisor = SupervisorConfig(policy="retry", max_retries=1, backoff_base_s=0.5)
        baseline = run_stream(
            self.faulted_router(supervisor, n_crashes=3), fresh_source()
        ).results()
        assert isinstance(baseline["client-0"], FailureRecord)
        assert baseline["client-0"].retries >= 1
        resumed = run_stream(
            self.faulted_router(supervisor, n_crashes=3),
            fresh_source(),
            cut_s=7.1,
            tmp_path=tmp_path,
        ).results()
        assert results_equal(baseline, resumed)


class TestTimeAwareResume:
    """The time-aware ToF filters (open batches, last closed periods) and a
    recorded classifier history round-trip through the columnar artifact."""

    def test_time_aware_resume_is_bit_identical(self, tmp_path):
        from repro.core.classifier import ClassifierConfig
        from repro.core.tof_trend import ToFTrendConfig

        config = ClassifierConfig(tof=ToFTrendConfig(time_aware=True), max_csi_gap_s=1.2)

        def router():
            classifier = BatchedMobilityClassifier(
                fresh_source().labels, config, record_history=True
            )
            return StreamRouter(classifier, config=CONFIG)

        baseline = run_stream(router(), fresh_source())
        resumed = run_stream(router(), fresh_source(), cut_s=9.1, tmp_path=tmp_path)
        assert results_equal(baseline.results(), resumed.results())
        for i in range(len(baseline.labels)):
            assert [e.to_dict() for e in baseline.classifier.history_of(i)] == [
                e.to_dict() for e in resumed.classifier.history_of(i)
            ]


class TestTelemetryAcrossResume:
    def test_counters_do_not_double_count(self, tmp_path):
        """A restored service binds a fresh recorder and counts only what
        happens in the new process — resume never replays history."""
        observations = list(fresh_source())
        cut_s = 9.3
        n_before = sum(1 for o in observations if o.time_s < cut_s)

        first = TelemetryRecorder()
        second = TelemetryRecorder()
        router = make_router(recorder=first)
        run_stream(router, observations, cut_s=cut_s, tmp_path=tmp_path, recorder=second)

        def accepted(recorder):
            from repro.telemetry.metrics import CounterMetric

            return sum(
                m.value
                for m in recorder.metrics.metrics()
                if isinstance(m, CounterMetric) and m.name == "stream.accepted"
            )

        assert accepted(first) == n_before
        assert accepted(second) == len(observations) - n_before

    def test_resume_emits_stream_resume_event(self, tmp_path):
        router = make_router()
        router.advance(3.1)
        path = tmp_path / "svc.ckpt"
        save_checkpoint(router, path)
        recorder = TelemetryRecorder()
        load_checkpoint(path, recorder=recorder)
        kinds = [event.kind for event in recorder.events]
        assert "stream_resume" in kinds

    def test_checkpoint_emits_event(self, tmp_path):
        recorder = TelemetryRecorder()
        router = make_router(recorder=recorder)
        save_checkpoint(router, tmp_path / "svc.ckpt")
        kinds = [event.kind for event in recorder.events]
        assert "stream_checkpoint" in kinds


class TestEvictionStateRoundTrip:
    def test_evicted_and_shed_flags_survive(self, tmp_path):
        classifier = BatchedMobilityClassifier(["a", "b", "c"])
        config = StreamConfig(
            dt_s=0.5,
            horizon_steps=100,
            queue_capacity=2,
            backpressure="shed_session",
            idle_timeout_s=1.0,
        )
        router = StreamRouter(classifier, config=config)
        # Shed "a" by overflow; let "b"/"c" go idle and get evicted.
        router.offer(Observation("a", 0.1, "tof", 1.0))
        router.offer(Observation("a", 0.15, "tof", 1.0))
        router.offer(Observation("a", 0.2, "tof", 1.0))
        router.advance(3.0)
        assert router.shed[0] and router.evicted[1] and router.evicted[2]

        path = tmp_path / "svc.ckpt"
        save_checkpoint(router, path)
        restored = load_checkpoint(path)
        assert list(restored.shed) == list(router.shed)
        assert list(restored.evicted) == list(router.evicted)
        assert restored.n_active_sessions == router.n_active_sessions
        # Shed stays shed; evicted revives on a fresh offer.
        assert not restored.offer(Observation("a", 3.2, "tof", 1.0))
        assert restored.offer(Observation("b", 3.2, "tof", 1.0))
        assert not restored.evicted[1]
