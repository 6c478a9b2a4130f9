"""Equivalence suite: the arrays-of-clients path vs N independent pipelines.

The contract under test (see ``docs/architecture.md``, "Arrays-of-clients
execution model"): for any seeded scenario — mixed static/mobile clients,
NaN bursts, missing CSI steps, ``max_csi_gap_s`` resets, fault-plan
degraded streams, chaos-quarantined members — a
:class:`repro.core.BatchedMobilityClassifier` must produce output
*element-wise identical* to N scalar classifiers fed reading by reading,
and a :class:`repro.sim.BatchedSensingSession` cohort run must match N
independent one-member cohort runs: same :class:`MobilityEstimate`
sequences, same per-client counters, same per-client event subsequences.
Only the cross-client interleaving of events within a step may differ.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchedMobilityClassifier, MobilityClassifier
from repro.core.classifier import ClassifierConfig
from repro.core.tof_trend import ToFTrendConfig
from repro.faults import (
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    NaNFault,
    SessionCrashFault,
)
from repro.sim import (
    BatchedSensingSession,
    FailureRecord,
    SimulationEngine,
    SupervisorConfig,
    TimeGrid,
)
from repro.telemetry import TelemetryRecorder

# --------------------------------------------------------------- scenarios


@dataclass
class Scenario:
    labels: List[str]
    grid_times: np.ndarray
    csi_by_client: List[List[Optional[np.ndarray]]]
    tof_times_by_client: List[np.ndarray]
    tof_readings_by_client: List[np.ndarray]
    config: ClassifierConfig


def make_scenario(
    seed: int,
    n_clients: int,
    n_steps: int = 36,
    n_subcarriers: int = 12,
    time_aware: bool = False,
    max_gap_s: Optional[float] = None,
    none_p: float = 0.08,
    nan_p: float = 0.05,
) -> Scenario:
    """Seeded mixed-fleet scenario: static, environmental and mobile clients."""
    rng = np.random.default_rng(seed)
    grid_dt = 0.5
    grid_times = np.arange(n_steps) * grid_dt
    csi_by_client: List[List[Optional[np.ndarray]]] = []
    tof_times_by_client: List[np.ndarray] = []
    tof_readings_by_client: List[np.ndarray] = []
    for i in range(n_clients):
        kind = i % 3  # 0: static, 1: walking away, 2: environmental churn
        base = rng.normal(1.0, 0.3, n_subcarriers) + 1j * rng.normal(
            0.0, 0.3, n_subcarriers
        )
        drift = (0.01, 0.25, 0.08)[kind]
        csi: List[Optional[np.ndarray]] = []
        for _ in range(n_steps):
            if rng.random() < none_p:
                csi.append(None)
                continue
            base = base + drift * (
                rng.normal(0, 1, n_subcarriers) + 1j * rng.normal(0, 1, n_subcarriers)
            )
            sample = base.copy()
            if rng.random() < nan_p:
                sample[rng.integers(0, n_subcarriers)] = np.nan
            csi.append(sample)
        t = np.arange(0.0, n_steps * grid_dt, 0.02)
        if kind == 1:
            v = 200.0 + 0.6 * t + rng.normal(0, 0.1, len(t))
        else:
            v = 200.0 + rng.normal(0, 0.2, len(t))
        v = np.where(rng.random(len(t)) < nan_p, np.nan, v)
        if time_aware:
            # Irregular sampling: thin the stream so some median periods
            # go sparse or empty (the PR 3 gap semantics under test).
            keep = rng.random(len(t)) > 0.35
            t, v = t[keep], v[keep]
        csi_by_client.append(csi)
        tof_times_by_client.append(t)
        tof_readings_by_client.append(np.asarray(v, dtype=float))
    config = ClassifierConfig(
        max_csi_gap_s=max_gap_s,
        tof=ToFTrendConfig(time_aware=time_aware),
    )
    return Scenario(
        labels=[f"client-{i:02d}" for i in range(n_clients)],
        grid_times=grid_times,
        csi_by_client=csi_by_client,
        tof_times_by_client=tof_times_by_client,
        tof_readings_by_client=tof_readings_by_client,
        config=config,
    )


# ------------------------------------------------------------- comparators


def per_client_counters(recorder: TelemetryRecorder) -> Dict[Tuple[str, str], float]:
    out: Dict[Tuple[str, str], float] = {}
    for metric, name, client, field, value in recorder.metrics.rows():
        if metric == "counter" and client:
            out[(name, client)] = value
    return out


def per_client_events(
    recorder: TelemetryRecorder, labels: Sequence[str]
) -> Dict[str, List[Tuple[Any, ...]]]:
    kinds = ("classifier_verdict", "hint_transition", "sensing_gap", "sampling_gap")
    out: Dict[str, List[Tuple[Any, ...]]] = {label: [] for label in labels}
    for event in recorder.events:
        if event.client in out and event.kind in kinds:
            out[event.client].append(
                (event.kind, event.time_s, tuple(sorted(event.fields.items())))
            )
    return out


def assert_estimates_equal(ref: Sequence[Any], got: Sequence[Any], label: str) -> None:
    assert len(ref) == len(got), f"{label}: {len(ref)} vs {len(got)} estimates"
    for step, (a, b) in enumerate(zip(ref, got)):
        assert a == b, f"{label} step {step}: {a} != {b}"


# --------------------------------------------------- classifier-level runs


def run_scalar_classifiers(scenario: Scenario) -> Tuple[List[List[Any]], TelemetryRecorder]:
    recorder = TelemetryRecorder()
    histories: List[List[Any]] = []
    for i, label in enumerate(scenario.labels):
        classifier = MobilityClassifier(scenario.config)
        classifier.recorder = recorder
        classifier.telemetry_client = label
        times = scenario.tof_times_by_client[i]
        readings = scenario.tof_readings_by_client[i]
        cursor = 0
        history: List[Any] = []
        for step, time_s in enumerate(scenario.grid_times):
            due = int(np.searchsorted(times, time_s, side="right"))
            for j in range(cursor, due):
                classifier.push_tof(float(times[j]), float(readings[j]))
            cursor = due
            sample = scenario.csi_by_client[i][step]
            if sample is not None:
                history.append(classifier.push_csi(float(time_s), sample))
        histories.append(history)
    return histories, recorder


def run_batched_classifier(
    scenario: Scenario, dense: bool
) -> Tuple[List[List[Any]], TelemetryRecorder]:
    recorder = TelemetryRecorder()
    classifier = BatchedMobilityClassifier(list(scenario.labels), scenario.config)
    classifier.recorder = recorder
    n = len(scenario.labels)
    cursors = [0] * n
    histories: List[List[Any]] = [[] for _ in range(n)]
    for step, time_s in enumerate(scenario.grid_times):
        chunks: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        for i in range(n):
            times = scenario.tof_times_by_client[i]
            due = int(np.searchsorted(times, time_s, side="right"))
            chunks.append(
                (times[cursors[i] : due], scenario.tof_readings_by_client[i][cursors[i] : due])
            )
            cursors[i] = due
        classifier.push_tof(chunks)
        samples = [scenario.csi_by_client[i][step] for i in range(n)]
        if dense:
            # Pack present samples into one slab and mask the absent ones —
            # the layout BatchedSensingSession feeds the classifier.
            shape = next((s.shape for s in samples if s is not None), None)
            if shape is None:
                continue
            slab = np.zeros((n, *shape), dtype=complex)
            mask = np.zeros(n, dtype=bool)
            for i, sample in enumerate(samples):
                if sample is not None:
                    slab[i] = sample
                    mask[i] = True
            estimates = classifier.push_csi(float(time_s), slab, mask=mask)
        else:
            estimates = classifier.push_csi(float(time_s), samples)
        for i, estimate in enumerate(estimates):
            if samples[i] is not None:
                histories[i].append(estimate)
    return histories, recorder


def check_classifier_equivalence(scenario: Scenario, dense: bool) -> None:
    ref_histories, ref_recorder = run_scalar_classifiers(scenario)
    got_histories, got_recorder = run_batched_classifier(scenario, dense=dense)
    for label, ref, got in zip(scenario.labels, ref_histories, got_histories):
        assert_estimates_equal(ref, got, label)
    assert per_client_counters(ref_recorder) == per_client_counters(got_recorder)
    assert per_client_events(ref_recorder, scenario.labels) == per_client_events(
        got_recorder, scenario.labels
    )


# ------------------------------------------------------- engine-level runs


def run_independent_engine(
    scenario: Scenario,
    faults: Optional[Dict[str, FaultPlan]] = None,
    chaos: Optional[Dict[str, SessionCrashFault]] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> Tuple[Dict[str, Any], TelemetryRecorder]:
    """Every client as its own one-member cohort on one engine."""
    recorder = TelemetryRecorder()
    engine = SimulationEngine(
        TimeGrid(scenario.grid_times), recorder=recorder, supervisor=supervisor
    )
    for i, label in enumerate(scenario.labels):
        engine.add(
            BatchedSensingSession(
                BatchedMobilityClassifier([label], scenario.config),
                [scenario.csi_by_client[i]],
                [scenario.tof_times_by_client[i]],
                [scenario.tof_readings_by_client[i]],
                client=label,
                faults={label: faults[label]} if faults and label in faults else None,
                member_faults={label: chaos[label]} if chaos and label in chaos else None,
            )
        )
    return engine.run(), recorder


def run_batched_engine(
    scenario: Scenario,
    faults: Optional[Dict[str, FaultPlan]] = None,
    chaos: Optional[Dict[str, SessionCrashFault]] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> Tuple[Dict[str, Any], TelemetryRecorder]:
    recorder = TelemetryRecorder()
    engine = SimulationEngine(
        TimeGrid(scenario.grid_times), recorder=recorder, supervisor=supervisor
    )
    classifier = BatchedMobilityClassifier(list(scenario.labels), scenario.config)
    engine.add(
        BatchedSensingSession(
            classifier,
            scenario.csi_by_client,
            scenario.tof_times_by_client,
            scenario.tof_readings_by_client,
            faults=faults,
            member_faults=chaos,
        )
    )
    return engine.run(), recorder


#: Fault specs per scenario client index.  Faults are stateless; each run
#: side gets fresh :class:`FaultPlan` instances (plans carry RNG state).
FAULT_SPECS: Dict[str, Dict[int, Tuple[Any, ...]]] = {
    "drop+nan": {1: (DropFault(0.3), NaNFault(0.2)), 4: (NaNFault(0.5),)},
    "duplicate": {1: (DuplicateFault(0.3),), 4: (DuplicateFault(0.6),)},
    "delay": {1: (DelayFault(0.3),), 4: (DelayFault(0.5, delay_s=1.2, delay_steps=2),)},
    "duplicate+drop": {2: (DuplicateFault(0.3), DropFault(0.3))},
    "delay+nan": {0: (DelayFault(0.4, delay_s=0.3), NaNFault(0.2))},
    "all-kinds": {
        3: (DropFault(0.2), DuplicateFault(0.2), DelayFault(0.2), NaNFault(0.1)),
        5: (NaNFault(0.1), DelayFault(0.3, delay_s=0.7), DuplicateFault(0.3)),
    },
}


def fault_plans(scenario: Scenario, spec: Dict[int, Tuple[Any, ...]]) -> Dict[str, FaultPlan]:
    return {
        scenario.labels[i]: FaultPlan(list(faults), seed=100 + i) for i, faults in spec.items()
    }


def check_engine_equivalence(
    scenario: Scenario,
    fault_spec: Optional[Dict[int, Tuple[Any, ...]]] = None,
    chaos: Optional[Dict[str, SessionCrashFault]] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> None:
    def plans() -> Optional[Dict[str, FaultPlan]]:
        return fault_plans(scenario, fault_spec) if fault_spec else None

    ref_results, ref_recorder = run_independent_engine(scenario, plans(), chaos, supervisor)
    got_results, got_recorder = run_batched_engine(scenario, plans(), chaos, supervisor)
    assert set(ref_results) == set(got_results) == set(scenario.labels)
    for label in scenario.labels:
        ref, got = ref_results[label], got_results[label]
        if isinstance(ref, FailureRecord):
            assert ref == got, f"{label}: {ref} != {got}"
        else:
            assert_estimates_equal(ref, got, label)
    assert per_client_counters(ref_recorder) == per_client_counters(got_recorder)
    assert per_client_events(ref_recorder, scenario.labels) == per_client_events(
        got_recorder, scenario.labels
    )


# ----------------------------------------------------------------- tests


class TestClassifierEquivalence:
    """BatchedMobilityClassifier vs N independent scalar classifiers."""

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-slab", "list-path"])
    @pytest.mark.parametrize("max_gap_s", [None, 1.2], ids=["no-gap-cap", "gap-cap"])
    def test_count_based(self, dense, max_gap_s):
        scenario = make_scenario(seed=7, n_clients=6, max_gap_s=max_gap_s)
        check_classifier_equivalence(scenario, dense=dense)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-slab", "list-path"])
    def test_time_aware(self, dense):
        scenario = make_scenario(seed=11, n_clients=6, time_aware=True, max_gap_s=1.2)
        check_classifier_equivalence(scenario, dense=dense)

    def test_single_client_matches_scalar_view(self):
        scenario = make_scenario(seed=3, n_clients=1)
        check_classifier_equivalence(scenario, dense=True)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_clients=st.integers(min_value=1, max_value=9),
        time_aware=st.booleans(),
        gap_cap=st.booleans(),
    )
    def test_property_random_scenarios(self, seed, n_clients, time_aware, gap_cap):
        scenario = make_scenario(
            seed=seed,
            n_clients=n_clients,
            n_steps=24,
            time_aware=time_aware,
            max_gap_s=1.2 if gap_cap else None,
        )
        check_classifier_equivalence(scenario, dense=True)


class TestEngineEquivalence:
    """One N-member cohort vs N one-member cohorts on the same engine."""

    def test_clean_run(self):
        scenario = make_scenario(seed=21, n_clients=7, max_gap_s=1.5)
        check_engine_equivalence(scenario)

    def test_time_aware_run(self):
        scenario = make_scenario(seed=23, n_clients=5, time_aware=True, max_gap_s=1.5)
        check_engine_equivalence(scenario)

    @pytest.mark.parametrize("time_aware", [False, True], ids=["count-based", "time-aware"])
    @pytest.mark.parametrize("spec", list(FAULT_SPECS))
    def test_fault_plan_degraded_streams(self, spec, time_aware):
        scenario = make_scenario(seed=29, n_clients=6, time_aware=time_aware)
        check_engine_equivalence(scenario, fault_spec=FAULT_SPECS[spec])

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_clients=st.integers(min_value=2, max_value=8),
    )
    def test_property_random_engine_runs(self, seed, n_clients):
        scenario = make_scenario(seed=seed, n_clients=n_clients, n_steps=24, max_gap_s=1.2)
        check_engine_equivalence(scenario)


class TestQuarantineEquivalence:
    """Masked members vs quarantined one-member cohorts — survivors bit-identical."""

    def _chaos(self, scenario: Scenario, label: str, **kwargs) -> Dict[str, SessionCrashFault]:
        return {label: SessionCrashFault(**kwargs)}

    def test_isolate_masks_member_and_preserves_survivors(self):
        scenario = make_scenario(seed=31, n_clients=6)
        crasher = scenario.labels[2]
        supervisor = SupervisorConfig(policy="isolate")
        check_engine_equivalence(
            scenario,
            chaos=self._chaos(scenario, crasher, phase="classify", at_step=9),
            supervisor=supervisor,
        )

    def test_isolate_quarantine_record_matches(self):
        scenario = make_scenario(seed=37, n_clients=5)
        crasher = scenario.labels[0]
        chaos = self._chaos(scenario, crasher, phase="sense", at_step=4)
        ref_results, _ = run_independent_engine(
            scenario, chaos=chaos, supervisor=SupervisorConfig(policy="isolate")
        )
        got_results, _ = run_batched_engine(
            scenario, chaos=chaos, supervisor=SupervisorConfig(policy="isolate")
        )
        record = got_results[crasher]
        assert isinstance(record, FailureRecord)
        assert record == ref_results[crasher]
        assert record.exception_type == "InjectedFault"
        assert record.phase == "sense"
        assert record.step == 4

    def test_retry_suspend_resume_round_trip(self):
        scenario = make_scenario(seed=41, n_clients=6)
        crasher = scenario.labels[3]
        supervisor = SupervisorConfig(
            policy="retry", max_retries=3, backoff_base_s=0.6, backoff_factor=2.0
        )
        check_engine_equivalence(
            scenario,
            chaos=self._chaos(scenario, crasher, phase="classify", at_step=6, n_crashes=2),
            supervisor=supervisor,
        )

    def test_retry_escalates_to_quarantine_identically(self):
        scenario = make_scenario(seed=43, n_clients=5)
        crasher = scenario.labels[1]
        supervisor = SupervisorConfig(
            policy="retry", max_retries=1, backoff_base_s=0.5, backoff_factor=2.0
        )
        check_engine_equivalence(
            scenario,
            chaos=self._chaos(scenario, crasher, phase="adapt", at_step=3, n_crashes=5),
            supervisor=supervisor,
        )

    def test_two_members_crashing(self):
        scenario = make_scenario(seed=47, n_clients=7)
        chaos = {
            scenario.labels[1]: SessionCrashFault(phase="classify", at_step=5),
            scenario.labels[5]: SessionCrashFault(phase="sense", at_step=11),
        }
        check_engine_equivalence(
            scenario, chaos=chaos, supervisor=SupervisorConfig(policy="isolate")
        )

    def test_seeded_chaos_schedule(self):
        scenario = make_scenario(seed=53, n_clients=6)
        chaos = {scenario.labels[4]: SessionCrashFault(seed=99, n_crashes=1)}
        check_engine_equivalence(
            scenario, chaos=chaos, supervisor=SupervisorConfig(policy="isolate")
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crasher=st.integers(min_value=0, max_value=4),
        step=st.integers(min_value=1, max_value=20),
        phase=st.sampled_from(["sense", "classify", "adapt"]),
        policy=st.sampled_from(["isolate", "retry"]),
    )
    def test_property_random_chaos(self, seed, crasher, step, phase, policy):
        scenario = make_scenario(seed=seed, n_clients=5, n_steps=24)
        chaos = {scenario.labels[crasher]: SessionCrashFault(phase=phase, at_step=step)}
        check_engine_equivalence(
            scenario, chaos=chaos, supervisor=SupervisorConfig(policy=policy)
        )


class TestBatchedSessionValidation:
    """Construction-time guard rails of the cohort session."""

    def test_member_fault_on_start_rejected(self):
        scenario = make_scenario(seed=2, n_clients=2)
        classifier = BatchedMobilityClassifier(list(scenario.labels))
        with pytest.raises(ValueError, match="engine step phases"):
            BatchedSensingSession(
                classifier,
                scenario.csi_by_client,
                scenario.tof_times_by_client,
                scenario.tof_readings_by_client,
                member_faults={scenario.labels[0]: SessionCrashFault(phase="start")},
            )

    def test_unknown_fault_label_rejected(self):
        scenario = make_scenario(seed=2, n_clients=2)
        classifier = BatchedMobilityClassifier(list(scenario.labels))
        with pytest.raises(ValueError, match="unknown"):
            BatchedSensingSession(
                classifier,
                scenario.csi_by_client,
                scenario.tof_times_by_client,
                scenario.tof_readings_by_client,
                member_faults={"nobody": SessionCrashFault(phase="classify", at_step=1)},
            )

    def test_stream_count_mismatch_rejected(self):
        scenario = make_scenario(seed=2, n_clients=3)
        classifier = BatchedMobilityClassifier(list(scenario.labels))
        with pytest.raises(ValueError):
            BatchedSensingSession(
                classifier,
                scenario.csi_by_client[:2],
                scenario.tof_times_by_client,
                scenario.tof_readings_by_client,
            )

    def test_shape_disagreement_raises(self):
        classifier = BatchedMobilityClassifier(2)
        with pytest.raises(ValueError, match="CSI shapes disagree"):
            classifier.push_csi(0.0, [np.ones(8), np.ones(12)])

    def test_cohort_results_keyed_by_member(self):
        scenario = make_scenario(seed=5, n_clients=3)
        results, _ = run_batched_engine(scenario)
        assert sorted(results) == sorted(scenario.labels)
        assert all(isinstance(v, list) for v in results.values())

    def test_duplicate_member_label_rejected_by_engine(self):
        scenario = make_scenario(seed=5, n_clients=2)
        engine = SimulationEngine(TimeGrid(scenario.grid_times))
        classifier = BatchedMobilityClassifier(list(scenario.labels))
        engine.add(
            BatchedSensingSession(
                classifier,
                scenario.csi_by_client,
                scenario.tof_times_by_client,
                scenario.tof_readings_by_client,
            )
        )
        label = scenario.labels[0]
        clash = BatchedSensingSession(
            BatchedMobilityClassifier([label]), [scenario.csi_by_client[0]], client=label
        )
        with pytest.raises(ValueError, match="duplicate session name"):
            engine.add(clash)
