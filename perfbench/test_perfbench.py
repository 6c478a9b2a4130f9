"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs, traced and untraced, and emits every metric that
``BENCHMARK.json`` names, with its unit; every output check fails on a
deliberately wrong input.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from time import perf_counter

import pytest

import run

run.prepare()

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from repro.core.hints import MobilityMode  # noqa: E402
from repro.resilience import ResilientService  # noqa: E402

TINY = workloads.Sizes(
    storm_clients=6,
    storm_duration_s=4.0,
    warmup_clients=2,
    warmup_duration_s=2.0,
    live_sessions=16,
    quiet_sessions=32,
    quiet_late_share=0.05,
    quiet_unknown_share=0.03,
    service_duration_s=6.0,
)
SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _run(workload: str, trace: bool, tmp_path: Path) -> workloads.Outcome:
    if workload == "sim_storm":
        return workloads.run_sim_storm(3, 0.01, trace, TINY)
    return workloads.run_service(workload, 3, 0.01, trace, str(tmp_path), TINY)


def test_spec_lists_the_metrics_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_emits_every_metric(workload, trace, tmp_path):
    outcome = _run(workload, trace, tmp_path)
    assert outcome.correct, outcome.failures
    assert outcome.attempted >= 1 and outcome.failed == 0
    names = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(outcome.metrics) >= set(names)
    for name in names:
        assert math.isfinite(outcome.metrics[name]), name
    if not trace:
        assert all(outcome.metrics[name] > 0 for name in names)
    else:
        metrics = outcome.metrics
        assert metrics["sim.steps"] > 0 and metrics["sim.classify_s"] > 0
        assert metrics["trace.overhead"] > 0
        assert any("per-layer self time" in note for note in outcome.notes)
        # Every wrapper of a layer the workload loads found its target.
        loaded = {
            "sim_storm": ("channel.calls", "mobility.sample_s", "phy.tof_sample_s",
                          "controller.epochs", "controller.observe_s"),
            "service_live": ("telemetry.hook_calls", "telemetry.series",
                             "stream.backlog_reads", "stream.offer_us_p50",
                             "resilience.saves", "resilience.encode_s",
                             "resilience.decode_s", "resilience.rollover_ms"),
            "service_quiet": ("stream.refused", "resilience.artifact_bytes",
                              "resilience.recovery_ms", "stream.backlog_max"),
        }[workload]
        for name in loaded:
            assert metrics[name] > 0, name
        if workload != "service_live":
            assert metrics["telemetry.hook_calls"] == 0


def test_run_prints_result_line_with_units(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    result = run.run_one("service_quiet", 3, 0.01, False, TINY)
    out = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in workloads.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert name in out


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "sim_storm", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


# ------------------------------------------------- checks on wrong inputs


def _estimates(tmp_path):
    spec = workloads.FleetSpec(n_clients=4, duration_s=4.0)
    return workloads.batch_reference(3, spec)


def test_one_flipped_estimate_fails_stream_equals_batch(tmp_path):
    batch = _estimates(tmp_path)
    streamed = {label: list(stream) for label, stream in batch.items()}
    digests = checks.estimate_digests(streamed)
    assert checks.check_stream_equals_batch(digests, batch) == []
    first = streamed["client-1"][2]
    flipped = (
        MobilityMode.MACRO if first.mode != MobilityMode.MACRO else MobilityMode.STATIC
    )
    streamed["client-1"][2] = dataclasses.replace(first, mode=flipped)
    assert checks.check_stream_equals_batch(checks.estimate_digests(streamed), batch)
    del streamed["client-2"]
    assert len(checks.check_stream_equals_batch(checks.estimate_digests(streamed), batch)) == 2


def test_one_uncounted_refusal_fails_accounting():
    ok = {"stream.accepted": 9.0, "stream.late": 1.0}
    assert checks.check_offer_accounting(10, 9, 1, expected_refused=1, counters=ok) == []
    uncounted = {"stream.accepted": 9.0}
    assert checks.check_offer_accounting(10, 9, 1, counters=uncounted)
    assert checks.check_offer_accounting(10, 10, 0, expected_refused=1)
    assert checks.check_offer_accounting(10, 9, 0)
    assert checks.check_offer_accounting(10, 9, 1, misjudged=1)


def test_recovery_and_storm_checks_fail_on_wrong_inputs():
    assert checks.check_recovery((50.0, 3, 100), (50.0, 3, 100)) == []
    assert checks.check_recovery((50.0, 3, 100), (49.5, 3, 99))
    grid = [0.0, 0.5, 1.0, 1.5]
    hints = {"a": [0.5, 1.0, 1.5], "b": [0.5, 1.5]}
    failures, missing = checks.check_storm_hints(hints, ["a", "b"], grid)
    assert failures and missing == 1
    assert checks.check_storm_hints({"a": [0.5, 1.0, 1.5]}, ["a"], grid) == ([], 0)
    assert checks.check_storm_epochs([0.0, 1.0], 4, 2) == []
    assert checks.check_storm_epochs([0.0], 4, 2)
    assert checks.check_same_digest(["x", "x"]) == []
    assert checks.check_same_digest(["x", "y"])


def test_service_run_fails_on_an_uncounted_refusal(tmp_path, monkeypatch):
    original = ResilientService.offer
    monkeypatch.setattr(
        ResilientService, "offer", lambda self, obs: original(self, obs) or True
    )
    outcome = workloads.run_service("service_quiet", 3, 0.01, False, str(tmp_path), TINY)
    assert not outcome.correct


def test_service_run_fails_on_a_flipped_estimate(tmp_path, monkeypatch):
    real = workloads.batch_reference

    def flipped(seed, spec):
        results = real(seed, spec)
        first = results["client-1"][0]
        results["client-1"][0] = dataclasses.replace(
            first, csi_similarity=first.csi_similarity + 1.0
        )
        return results

    monkeypatch.setattr(workloads, "batch_reference", flipped)
    outcome = workloads.run_service("service_live", 3, 0.01, False, str(tmp_path), TINY)
    assert not outcome.correct


def test_storm_run_fails_on_a_missing_hint(monkeypatch):
    real = workloads.build_storm

    def lossy(*args, **kwargs):
        inputs = real(*args, **kwargs)
        csi = list(inputs.csi_by_client)
        row = list(csi[0])
        row[2] = None
        csi[0] = tuple(row)
        return dataclasses.replace(inputs, csi_by_client=tuple(csi))

    monkeypatch.setattr(workloads, "build_storm", lossy)
    outcome = workloads.run_sim_storm(3, 0.01, False, TINY)
    assert not outcome.correct and outcome.failed > 0


def test_probed_clock_leaves_probe_time_out_and_restores_the_wrapped_call():
    class Target:
        def work(self, x):
            return x + 1

    clock = hostspeed.ProbedClock()
    assert clock.scale() == 1.0
    with clock.after_calls(Target, "work"):
        assert Target().work(1) == 2
    assert len(clock.samples) == 1 and clock.probed_s == clock.samples[0] > 0
    assert abs(clock.now() - (perf_counter() - clock.probed_s)) < 1e-3
    assert not hasattr(Target.work, "__wrapped__")
    clock.samples = [2 * hostspeed.REFERENCE_PROBE_S] * 3 + [hostspeed.REFERENCE_PROBE_S]
    assert clock.scale(0, 3) == 0.5 and clock.scale(3) == 1.0 and clock.scale(4) == 1.0
