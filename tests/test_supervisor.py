"""Supervised engine: fault isolation, retry/backoff, chaos determinism.

The acceptance contract: under ``policy="isolate"`` with a seeded
``SessionCrashFault`` killing one of N clients mid-run, the N−1 surviving
clients' results are bit-identical to the same run without the fault, the
quarantined client yields a ``FailureRecord`` (client, phase, step,
exception), a raising recorder never aborts a run, and the default
``fail_fast`` path stays bit-identical to the pinned engine goldens
(``tests/test_golden_engine.py``).
"""

import json
import warnings

import numpy as np
import pytest

from repro.core import BatchedMobilityClassifier
from repro.core.hints import safe_default_hint
from repro.experiments.common import sense_and_classify
from repro.faults import (
    ChannelEvalFault,
    InjectedFault,
    RecorderFault,
    SessionCrashFault,
)
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.scenarios import macro_scenario
from repro.sim import (
    BatchedSensingSession,
    FailureRecord,
    Session,
    SessionError,
    SimulationEngine,
    SupervisorConfig,
    TimeGrid,
)
from repro.telemetry import (
    NULL_RECORDER,
    ShieldedRecorder,
    TelemetryRecorder,
    failures_to_json,
    shield,
    write_failure_report,
)
from repro.util.geometry import Point


def twenty_step_grid():
    return TimeGrid(np.arange(0.0, 2.0, 0.1))


def twenty_csi_samples(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(1.0, 0.2, 8) for _ in range(20)]


class RaisingClassifier(BatchedMobilityClassifier):
    """A cohort classifier whose CSI push raises from ``from_s`` on."""

    def __init__(self, clients, from_s):
        super().__init__(clients)
        self.from_s = from_s

    def push_csi(self, time_s, samples, mask=None):
        if time_s >= self.from_s:
            raise RuntimeError("classifier blew up")
        return super().push_csi(time_s, samples, mask=mask)


class NoisySession(Session):
    """Deterministic per-session RNG work — the survivor bit-identity probe.

    Each phase draws from the session's own seeded generator, so any
    engine-level interference (extra calls, skipped steps, reordering)
    changes the returned array.
    """

    def __init__(self, client, seed):
        self.client = client
        self._rng = np.random.default_rng(seed)
        self.values = []

    def sense(self, clock):
        self.values.append(self._rng.normal())

    def classify(self, clock):
        self.values.append(self._rng.normal() * 2.0)

    def adapt(self, clock):
        self.values.append(clock.start_s + self._rng.random())

    def transmit(self, clock):
        self.values.append(self._rng.integers(0, 100))

    def finish(self):
        return np.asarray(self.values, dtype=float)


class JournalSession(Session):
    """Appends (phase, step) so tests can see exactly what ran."""

    def __init__(self, client="journal"):
        self.client = client
        self.journal = []
        self.finished = False
        self.quarantine_calls = []

    def sense(self, clock):
        self.journal.append(("sense", clock.index))

    def classify(self, clock):
        self.journal.append(("classify", clock.index))

    def adapt(self, clock):
        self.journal.append(("adapt", clock.index))

    def transmit(self, clock):
        self.journal.append(("transmit", clock.index))

    def finish(self):
        self.finished = True
        return list(self.journal)

    def on_quarantine(self, time_s, record):
        self.quarantine_calls.append((time_s, record))


def run_trio(fault=None, supervisor=None, recorder=NULL_RECORDER, seeds=(1, 2, 3)):
    """Three NoisySessions; optionally wrap the middle one in a crash fault."""
    engine = SimulationEngine(twenty_step_grid(), recorder=recorder, supervisor=supervisor)
    for i, seed in enumerate(seeds):
        session = NoisySession(f"client-{i}", seed)
        if fault is not None and i == 1:
            session = fault.wrap(session)
        engine.add(session)
    return engine, engine.run()


class TestSupervisorConfig:
    def test_default_policy_is_fail_fast(self):
        assert SupervisorConfig().policy == "fail_fast"
        assert SupervisorConfig().fail_fast
        engine = SimulationEngine(twenty_step_grid())
        assert engine.supervisor_config.fail_fast

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            SupervisorConfig(policy="limp_home")

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorConfig(policy="retry", max_retries=-1)
        with pytest.raises(ValueError, match="backoff_base_s"):
            SupervisorConfig(policy="retry", backoff_base_s=0.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            SupervisorConfig(policy="retry", backoff_factor=0.5)

    def test_backoff_is_deterministic_exponential(self):
        config = SupervisorConfig(policy="retry", backoff_base_s=0.5, backoff_factor=2.0)
        assert [config.backoff_s(k) for k in (1, 2, 3)] == [0.5, 1.0, 2.0]


class TestFailFast:
    def test_failure_still_raises_session_error(self):
        fault = SessionCrashFault(phase="adapt", at_step=4)
        with pytest.raises(SessionError, match="client-1.*adapt"):
            run_trio(fault=fault)

    def test_run_abort_event_terminates_the_trace(self):
        recorder = TelemetryRecorder()
        fault = SessionCrashFault(phase="classify", at_step=7)
        with pytest.raises(SessionError):
            run_trio(fault=fault, recorder=recorder)
        (abort,) = recorder.tracer.of_kind("run_abort")
        assert abort.client == "client-1"
        assert abort.fields["phase"] == "classify"
        assert abort.step == 7
        assert abort.time_s == pytest.approx(0.7)
        # the trace ends in the abort marker, not a silent truncation
        assert recorder.tracer.events[-1].kind == "run_abort"
        assert not recorder.tracer.of_kind("run_end")

    def test_no_failures_surface_on_engine(self):
        engine, _ = run_trio()
        assert engine.failures == {}

    @pytest.mark.parametrize(
        "phase, at_step, step",
        [
            ("start", 0, 0),
            ("sense", 3, 3),
            ("classify", 7, 7),
            ("adapt", 12, 12),
            ("transmit", 16, 16),
            ("finish", 0, 19),
        ],
    )
    def test_every_phase_aborts_through_the_supervisor(self, phase, at_step, step):
        """One loop for every policy: under ``fail_fast`` the supervisor's
        verdict is the abort — a ``run_abort`` marker and the re-raised
        error, with none of the isolate/retry bookkeeping."""
        recorder = TelemetryRecorder()
        engine = SimulationEngine(twenty_step_grid(), recorder=recorder)
        engine.add(NoisySession("client-0", 1))
        fault = SessionCrashFault(phase=phase, at_step=at_step)
        engine.add(fault.wrap(NoisySession("client-1", 2)))
        with pytest.raises(SessionError, match=f"'client-1' failed in phase '{phase}'") as info:
            engine.run()
        assert (info.value.client, info.value.phase) == ("client-1", phase)
        assert info.value.time_s == pytest.approx(0.1 * step)
        abort = recorder.tracer.events[-1]
        assert abort.kind == "run_abort"
        assert (abort.client, abort.fields["phase"], abort.step) == ("client-1", phase, step)
        assert not recorder.tracer.of_kind("session_failed")
        assert not [name for name in recorder.metrics.counters() if name.startswith("supervisor.")]
        assert engine.failures == {}

    def test_run_end_reports_zero_quarantined(self):
        recorder = TelemetryRecorder()
        run_trio(recorder=recorder)
        (run_end,) = recorder.tracer.of_kind("run_end")
        assert run_end.fields["n_quarantined"] == 0

    @pytest.mark.parametrize("policy", ["fail_fast", "isolate"])
    def test_nested_engine_failure_is_charged_to_the_outer_session(self, policy):
        """A SessionError escaping a nested engine names an inner client the
        outer run does not know; every policy charges it to the outer
        session, in the outer phase and at the outer step."""

        class NestedRun(Session):
            client = "outer"

            def sense(self, clock):
                if clock.index == 4:
                    inner = SimulationEngine(twenty_step_grid())
                    fault = SessionCrashFault(phase="classify", at_step=2)
                    inner.add(fault.wrap(JournalSession("inner")))
                    inner.run()

        engine = SimulationEngine(twenty_step_grid(), supervisor=SupervisorConfig(policy=policy))
        engine.add(NestedRun())
        if policy == "fail_fast":
            with pytest.raises(SessionError) as info:
                engine.run()
            error = info.value
            assert (error.client, error.phase) == ("outer", "sense")
            assert error.time_s == pytest.approx(0.4)
            assert isinstance(error.__cause__, SessionError)
            assert (error.__cause__.client, error.__cause__.phase) == ("inner", "classify")
        else:
            record = engine.run()["outer"]
            assert (record.client, record.phase, record.step) == ("outer", "sense", 4)
            assert record.exception_type == "SessionError"


class TestIsolate:
    def test_survivors_bit_identical_and_failure_record_structured(self):
        """The ISSUE acceptance criterion, minus the recorder chaos."""
        _, clean = run_trio()
        fault = SessionCrashFault(phase="classify", at_step=7)
        engine, faulty = run_trio(fault=fault, supervisor=SupervisorConfig(policy="isolate"))

        for name in ("client-0", "client-2"):
            np.testing.assert_array_equal(clean[name], faulty[name])
        record = faulty["client-1"]
        assert isinstance(record, FailureRecord)
        assert record.client == "client-1"
        assert record.phase == "classify"
        assert record.step == 7
        assert record.time_s == pytest.approx(0.7)
        assert record.exception_type == "InjectedFault"
        assert "injected session crash" in record.message
        assert record.retries == 0
        assert engine.failures == {"client-1": record}

    def test_quarantine_stops_phases_and_skips_finish(self):
        session = JournalSession()
        fault = SessionCrashFault(phase="adapt", at_step=3)
        engine = SimulationEngine(twenty_step_grid(), supervisor=SupervisorConfig(policy="isolate"))
        engine.add(fault.wrap(session))
        results = engine.run()
        assert isinstance(results["journal"], FailureRecord)
        # nothing ran after the failing call, and finish() was skipped
        assert session.journal[-1] == ("classify", 3)
        assert not session.finished
        # the safe-degradation hook fired exactly once, with the record
        ((time_s, record),) = session.quarantine_calls
        assert time_s == pytest.approx(0.3)
        assert record.phase == "adapt"

    def test_start_failure_quarantines_before_stepping(self):
        session = JournalSession()
        fault = SessionCrashFault(phase="start")
        engine = SimulationEngine(twenty_step_grid(), supervisor=SupervisorConfig(policy="isolate"))
        engine.add(fault.wrap(session))
        survivor = engine.add(NoisySession("ok", seed=9))
        results = engine.run()
        assert results["journal"].phase == "start"
        assert session.journal == []
        assert isinstance(results["ok"], np.ndarray)
        assert len(results["ok"]) == 4 * 20
        del survivor

    def test_finish_failure_yields_record(self):
        fault = SessionCrashFault(phase="finish")
        engine, results = run_trio(fault=fault, supervisor=SupervisorConfig(policy="isolate"))
        record = results["client-1"]
        assert record.phase == "finish"
        assert record.step == 19
        assert engine.failures["client-1"] is record

    def test_raising_quarantine_hook_cannot_abort(self):
        class BadHook(JournalSession):
            def on_quarantine(self, time_s, record):
                raise RuntimeError("degradation gone wrong")

        recorder = TelemetryRecorder()
        fault = SessionCrashFault(phase="sense", at_step=0)
        engine = SimulationEngine(
            twenty_step_grid(),
            recorder=recorder,
            supervisor=SupervisorConfig(policy="isolate"),
        )
        engine.add(fault.wrap(BadHook()))
        results = engine.run()
        assert isinstance(results["journal"], FailureRecord)
        assert recorder.metrics.counter("supervisor.degrade_errors", client="journal").value == 1

    def test_supervision_telemetry(self):
        recorder = TelemetryRecorder()
        fault = SessionCrashFault(phase="transmit", at_step=11)
        run_trio(fault=fault, supervisor=SupervisorConfig(policy="isolate"), recorder=recorder)
        assert recorder.metrics.counter("supervisor.failures", client="client-1").value == 1
        assert recorder.metrics.counter("supervisor.quarantined").value == 1
        (failed,) = recorder.tracer.of_kind("session_failed")
        (quarantined,) = recorder.tracer.of_kind("session_quarantined")
        assert failed.client == quarantined.client == "client-1"
        assert quarantined.fields["phase"] == "transmit"
        assert quarantined.step == 11
        (run_end,) = recorder.tracer.of_kind("run_end")
        assert run_end.fields["n_quarantined"] == 1


class TestRetry:
    def test_transient_failure_suspends_then_recovers(self):
        session = JournalSession()
        fault = SessionCrashFault(phase="sense", at_step=5, n_crashes=1)
        recorder = TelemetryRecorder()
        config = SupervisorConfig(policy="retry", max_retries=2, backoff_base_s=0.3)
        engine = SimulationEngine(twenty_step_grid(), recorder=recorder, supervisor=config)
        engine.add(fault.wrap(session))
        results = engine.run()
        # failed at t=0.5, suspended until 0.5+0.3=0.8 -> steps 5,6,7 skipped
        steps_run = sorted({step for _, step in session.journal})
        assert steps_run == [0, 1, 2, 3, 4, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        assert session.finished
        assert isinstance(results["journal"], list)
        assert recorder.metrics.counter("supervisor.retries", client="journal").value == 1
        assert "supervisor.quarantined" not in recorder.metrics.counters()
        (retry,) = recorder.tracer.of_kind("session_retry")
        assert retry.fields["resume_s"] == pytest.approx(0.8)
        (resumed,) = recorder.tracer.of_kind("session_resumed")
        assert resumed.step == 8

    def test_backoff_grows_per_failure(self):
        session = JournalSession()
        # crash at steps 2 and whatever step it resumes at
        fault = SessionCrashFault(phase="sense", at_step=2, n_crashes=8)
        config = SupervisorConfig(
            policy="retry", max_retries=2, backoff_base_s=0.2, backoff_factor=2.0
        )
        recorder = TelemetryRecorder()
        engine = SimulationEngine(twenty_step_grid(), recorder=recorder, supervisor=config)
        engine.add(fault.wrap(session))
        results = engine.run()
        retries = recorder.tracer.of_kind("session_retry")
        # fail@0.2 -> resume 0.4; fail@0.4 -> resume 0.8; fail@0.8 -> quarantine
        assert [event.fields["resume_s"] for event in retries] == pytest.approx([0.4, 0.8])
        record = results["journal"]
        assert isinstance(record, FailureRecord)
        assert record.retries == 2
        assert record.step == 8

    def test_zero_retries_behaves_like_isolate(self):
        fault = SessionCrashFault(phase="classify", at_step=4)
        config = SupervisorConfig(policy="retry", max_retries=0)
        _, results = run_trio(fault=fault, supervisor=config)
        assert results["client-1"].retries == 0

    def test_start_failure_is_restarted_after_backoff(self):
        session = JournalSession()
        fault = SessionCrashFault(phase="start", n_crashes=1)
        config = SupervisorConfig(policy="retry", max_retries=1, backoff_base_s=0.25)
        engine = SimulationEngine(twenty_step_grid(), supervisor=config)
        engine.add(fault.wrap(session))
        results = engine.run()
        # start failed at t=0.0, re-attempted at the first step past 0.25
        assert session.journal[0] == ("sense", 3)
        assert session.finished
        assert isinstance(results["journal"], list)


class TestSafeHintDegradation:
    def test_safe_default_hint_is_mobility_oblivious(self):
        hint = safe_default_hint(4.2)
        assert hint.time_s == 4.2
        assert hint.mode == MobilityMode.STATIC
        assert hint.heading == Heading.NONE
        assert hint.csi_similarity is None
        assert not hint.tof_window_full
        assert not hint.is_device_mobility
        assert not hint.moving_away and not hint.moving_towards

    def test_quarantined_sensing_session_pushes_safe_hint_downstream(self):
        seen = []
        session = BatchedSensingSession(
            BatchedMobilityClassifier(["sensor"]),
            [twenty_csi_samples()],
            client="sensor",
            on_estimate=lambda client, now, est: seen.append(est),
            member_faults={"sensor": SessionCrashFault(phase="classify", at_step=7)},
        )
        engine = SimulationEngine(
            twenty_step_grid(), supervisor=SupervisorConfig(policy="isolate")
        )
        engine.add(session)
        results = engine.run()
        assert isinstance(results["sensor"], FailureRecord)
        # steps 1..6 produced real estimates (step 0 only primes), then one
        # safe default at the quarantine instant
        partial = session.estimates_by_client[0]
        assert len(partial) == 6
        assert seen[:-1] == partial
        final = seen[-1]
        assert final == safe_default_hint(final.time_s)
        assert final.time_s == pytest.approx(0.7)

    def test_cohort_wide_quarantine_degrades_every_member(self):
        """A failure no member owns (the classifier itself raising) must
        leave no consumer on its last pre-failure hint."""
        seen = {"a": [], "b": []}
        session = BatchedSensingSession(
            RaisingClassifier(["a", "b"], from_s=0.45),
            [twenty_csi_samples(seed=1), twenty_csi_samples(seed=2)],
            on_estimate=lambda client, now, est: seen[client].append(est),
        )
        engine = SimulationEngine(
            twenty_step_grid(), supervisor=SupervisorConfig(policy="isolate")
        )
        engine.add(session)
        results = engine.run()
        record = engine.failures["cohort"]
        assert record.step == 5 and record.exception_type == "RuntimeError"
        assert results == {"a": record, "b": record}
        for client in ("a", "b"):
            assert [e.time_s for e in seen[client][:-1]] == pytest.approx(
                [0.1, 0.2, 0.3, 0.4]
            )
            assert seen[client][-1] == safe_default_hint(record.time_s)

    def test_cohort_wide_quarantine_keeps_earlier_member_records(self):
        seen = {"a": [], "b": []}
        session = BatchedSensingSession(
            RaisingClassifier(["a", "b"], from_s=0.45),
            [twenty_csi_samples(seed=1), twenty_csi_samples(seed=2)],
            on_estimate=lambda client, now, est: seen[client].append(est),
            member_faults={"b": SessionCrashFault(phase="classify", at_step=2)},
        )
        engine = SimulationEngine(
            twenty_step_grid(), supervisor=SupervisorConfig(policy="isolate")
        )
        engine.add(session)
        results = engine.run()
        member, cohort = engine.failures["b"], engine.failures["cohort"]
        assert results == {"a": cohort, "b": member}
        # b was degraded once, at its own quarantine, and never again
        assert [e.time_s for e in seen["b"]] == pytest.approx([0.1, 0.2])
        assert seen["b"][-1] == safe_default_hint(member.time_s)
        assert seen["a"][-1] == safe_default_hint(cohort.time_s)


class TestRecorderShielding:
    def test_shield_passthrough_and_idempotence(self):
        assert shield(NULL_RECORDER) is NULL_RECORDER
        live = TelemetryRecorder()
        shielded = shield(live)
        assert isinstance(shielded, ShieldedRecorder)
        assert shield(shielded) is shielded

    def test_shield_absorbs_and_counts(self):
        faulty = RecorderFault(hooks=("count",)).wrap(TelemetryRecorder())
        shielded = shield(faulty)
        shielded.count("x")
        shielded.count("x")
        assert shielded.n_errors == 2
        assert isinstance(shielded.first_error, InjectedFault)
        assert shielded.enabled  # below max_errors

    def test_shield_disables_after_max_errors(self):
        faulty = RecorderFault().wrap(TelemetryRecorder())
        shielded = shield(faulty)
        shielded = ShieldedRecorder(faulty, max_errors=3)
        for _ in range(5):
            shielded.event("boom", 0.0)
        assert shielded.n_errors == 3
        assert not shielded.enabled

    def test_raising_recorder_never_aborts_a_run(self):
        """The acceptance criterion's observability clause."""
        _, clean = run_trio()
        faulty = RecorderFault(rate=1.0).wrap(TelemetryRecorder())
        _, with_chaos = run_trio(recorder=faulty)
        for name in ("client-0", "client-1", "client-2"):
            np.testing.assert_array_equal(clean[name], with_chaos[name])

    def test_partially_raising_recorder_keeps_the_rest_of_the_trace(self):
        inner = TelemetryRecorder()
        faulty = RecorderFault(hooks=("count",)).wrap(inner)
        _, results = run_trio(recorder=faulty)
        assert len(results) == 3
        assert inner.tracer.of_kind("run_start")
        assert inner.tracer.of_kind("run_end")


class TestChaosDeterminism:
    def test_same_seed_same_quarantine_set_and_surviving_bits(self):
        def chaos_run():
            faults = {
                1: SessionCrashFault(phase="classify", seed=101),
                3: SessionCrashFault(phase="transmit", seed=202),
            }
            engine = SimulationEngine(
                twenty_step_grid(), supervisor=SupervisorConfig(policy="isolate")
            )
            for i in range(5):
                session = NoisySession(f"client-{i}", seed=40 + i)
                if i in faults:
                    session = faults[i].wrap(session)
                engine.add(session)
            return engine.run()

        first = chaos_run()
        second = chaos_run()
        quarantined_first = {k for k, v in first.items() if isinstance(v, FailureRecord)}
        quarantined_second = {k for k, v in second.items() if isinstance(v, FailureRecord)}
        assert quarantined_first == quarantined_second == {"client-1", "client-3"}
        for client in quarantined_first:
            assert first[client] == second[client]  # same step, phase, message
        for client in set(first) - quarantined_first:
            np.testing.assert_array_equal(first[client], second[client])


class TestForClientsRegression:
    @staticmethod
    def _channel_and_trajectories(n=2):
        from repro.channel.config import ChannelConfig
        from repro.channel.model import MultiLinkChannel
        from repro.mobility.trajectory import WaypointWalkTrajectory

        trajectories = [
            WaypointWalkTrajectory(
                Point(5.0 + i, 5.0), area=(-40, -40, 40, 40), seed=10 + i
            ).sample(2.0, 0.05)
            for i in range(n)
        ]
        channel = MultiLinkChannel.for_clients(Point(0, 0), n, ChannelConfig(), seed=9)
        return channel, trajectories

    def test_for_clients_no_longer_mutates_the_channel(self):
        channel, trajectories = self._channel_and_trajectories()
        recorder = TelemetryRecorder()
        engine = SimulationEngine.for_clients(
            channel,
            trajectories,
            lambda i, trace: NoisySession(f"client-{i}", seed=i),
            recorder=recorder,
        )
        # the evaluation was observed...
        (batch,) = recorder.tracer.of_kind("channel_batch")
        assert batch.fields["batch_size"] == 2
        # ...but the caller's channel came back untouched
        assert channel.recorder is NULL_RECORDER
        for link in channel.links:
            assert link.recorder is NULL_RECORDER
        assert engine.run()

    def test_channel_fault_still_restores_the_recorder(self):
        channel, trajectories = self._channel_and_trajectories()
        wrapped = ChannelEvalFault(at_call=0).wrap(channel)
        with pytest.raises(InjectedFault):
            SimulationEngine.for_clients(
                wrapped,
                trajectories,
                lambda i, trace: NoisySession(f"client-{i}", seed=i),
                recorder=TelemetryRecorder(),
            )
        assert channel.recorder is NULL_RECORDER

    def test_supervisor_config_reaches_the_engine(self):
        channel, trajectories = self._channel_and_trajectories()
        engine = SimulationEngine.for_clients(
            channel,
            trajectories,
            lambda i, trace: NoisySession(f"client-{i}", seed=i),
            supervisor=SupervisorConfig(policy="isolate"),
        )
        assert engine.supervisor_config.policy == "isolate"


class TestStrideForSubgridCadence:
    def test_strict_raises_for_cadence_faster_than_grid(self):
        grid = TimeGrid(np.arange(0.0, 10.0, 0.1))
        with pytest.raises(ValueError, match="faster than the grid"):
            grid.stride_for(0.02)

    def test_lenient_warns_and_clamps(self):
        grid = TimeGrid(np.arange(0.0, 10.0, 0.1))
        with pytest.warns(RuntimeWarning, match="faster than the grid"):
            assert grid.stride_for(0.02, strict=False) == 1

    def test_aligned_cadences_stay_silent(self):
        grid = TimeGrid(np.arange(0.0, 10.0, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grid.stride_for(0.5) == 5
            assert grid.stride_for(0.1) == 1


class TestFailureReporting:
    def test_summary_renders_supervision_section(self):
        recorder = TelemetryRecorder()
        fault = SessionCrashFault(phase="classify", at_step=7)
        run_trio(fault=fault, supervisor=SupervisorConfig(policy="isolate"), recorder=recorder)
        text = recorder.summary()
        assert "supervision:" in text
        assert "client-1 quarantined in 'classify'" in text

    def test_failure_report_round_trips(self, tmp_path):
        fault = SessionCrashFault(phase="classify", at_step=7)
        engine, _ = run_trio(fault=fault, supervisor=SupervisorConfig(policy="isolate"))
        path = tmp_path / "failures.json"
        write_failure_report(engine.failures, path)
        report = json.loads(path.read_text())
        assert report["n_quarantined"] == 1
        (record,) = report["failures"]
        assert record["client"] == "client-1"
        assert record["phase"] == "classify"
        assert record["step"] == 7
        assert record["exception_type"] == "InjectedFault"
        assert failures_to_json(engine.failures) == path.read_text()


class TestFailFastGoldensPinned:
    """Default policy must keep the pre-supervisor goldens bit-identical,
    and the supervised loop must be a no-op when nothing fails."""

    def test_sensing_golden_under_explicit_fail_fast(self):
        sensed = sense_and_classify(
            macro_scenario(Point(10.0, 4.0), seed=5),
            Point(0.0, 0.0),
            duration_s=30.0,
            seed=5,
            supervisor=SupervisorConfig(policy="fail_fast"),
        )
        assert len(sensed.hints) == 59
        assert sensed.hints[0].mode == MobilityMode.MICRO
        assert sensed.failure is None

    def test_isolate_without_faults_matches_fail_fast(self):
        kwargs = dict(duration_s=30.0, seed=5)
        strict = sense_and_classify(
            macro_scenario(Point(10.0, 4.0), seed=5), Point(0.0, 0.0), **kwargs
        )
        supervised = sense_and_classify(
            macro_scenario(Point(10.0, 4.0), seed=5),
            Point(0.0, 0.0),
            supervisor=SupervisorConfig(policy="isolate"),
            **kwargs,
        )
        assert supervised.failure is None
        assert [(h.time_s, h.mode, h.heading) for h in supervised.hints] == [
            (h.time_s, h.mode, h.heading) for h in strict.hints
        ]
