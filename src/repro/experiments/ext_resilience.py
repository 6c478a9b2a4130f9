"""Extension study — recovery-SLO chaos campaign for the self-healing runtime.

The streaming study (:mod:`repro.experiments.ext_streaming`) proves the
service is *correct*; this one proves it is *survivable*.  One seeded
fleet trace is driven through :class:`repro.resilience.ResilientService`
three ways:

* **golden** — one long grid segment, clean sources: the reference
  estimate stream;
* **nominal** — a deliberately tiny grid horizon, still clean: every
  estimate must be **bit-identical** to golden even though the service
  rolled over several segments, and not one observation may be lost;
* **chaos** — same seed, same tiny horizon, with every injector from
  :mod:`repro.faults.chaos` armed at once: a flaky source
  (:class:`SourceFault`, retry + backoff + fast-forward), a hard
  mid-run kill (:class:`ServiceKillFault`, no graceful checkpoint), and
  the newest on-disk artifact corrupted before recovery
  (:class:`CheckpointCorruptionFault`).

The recovery SLOs asserted (``strict=True`` raises on any breach, which
is how the CI step gates):

* **zero nominal-input loss** — the nominal pass accepts every
  observation (no blocked/dropped/shed/late/unknown);
* **bounded-step recovery** — the chaos kill is recovered by replaying
  at most two checkpoint cadences of engine steps (newest artifact is
  corrupt, so the scan must fall back exactly one artifact);
* **bit-identical survivors** — clients served by the *healthy* source
  end the chaos run with estimate streams bit-identical to golden;
* **every failure counted** — rollovers, source failures/retries,
  corrupt artifacts, and the recovery itself are all visible under
  their registered ``resilience.*`` names; self-healing must never be
  quieter than the failure it masks.

CLI: ``python -m repro.experiments resilience [--quick]``; a JSON
recovery report is written alongside (``ext_resilience_report.json``)
for the CI artifact upload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.core.batched import BatchedMobilityClassifier
from repro.faults.chaos import (
    CheckpointCorruptionFault,
    ServiceKilled,
    ServiceKillFault,
    SourceFault,
)
from repro.resilience import ResilienceConfig, ResilientService, SourceSpec
from repro.sim.supervisor import SupervisorConfig
from repro.stream import FleetSpec, Observation, SimulatedSource, StreamConfig
from repro.telemetry.recorder import TelemetryRecorder
from repro.util.rng import SeedLike


@dataclass
class ResilienceCampaignResult:
    """Recovery SLOs and failure accounting for one chaos campaign."""

    n_clients: int
    n_steps: int
    n_observations: int
    n_estimates_golden: int
    nominal_rollovers: int
    nominal_losses: float
    rollover_equivalent: bool
    kill_step: int
    recovery_replayed_steps: int
    recovery_bound_steps: int
    survivors_bit_identical: bool
    chaos_counters: Dict[str, float] = field(default_factory=dict)
    slo_breaches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.slo_breaches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_clients": self.n_clients,
            "n_steps": self.n_steps,
            "n_observations": self.n_observations,
            "n_estimates_golden": self.n_estimates_golden,
            "nominal_rollovers": self.nominal_rollovers,
            "nominal_losses": self.nominal_losses,
            "rollover_equivalent": self.rollover_equivalent,
            "kill_step": self.kill_step,
            "recovery_replayed_steps": self.recovery_replayed_steps,
            "recovery_bound_steps": self.recovery_bound_steps,
            "survivors_bit_identical": self.survivors_bit_identical,
            "chaos_counters": dict(self.chaos_counters),
            "slo_breaches": list(self.slo_breaches),
            "ok": self.ok,
        }

    def format_report(self) -> str:
        lines = [
            "Extension — self-healing runtime chaos campaign",
            f"fleet: {self.n_clients} clients, {self.n_steps} engine steps/segment-equivalent, "
            f"{self.n_observations} observations, {self.n_estimates_golden} golden estimates",
            f"rollover == single long grid (bit-identical): "
            f"{'yes' if self.rollover_equivalent else 'NO'} "
            f"({self.nominal_rollovers} rollovers)",
            f"nominal losses (must be 0):                   {self.nominal_losses:.0f}",
            f"chaos kill at service step {self.kill_step}: replayed "
            f"{self.recovery_replayed_steps} steps "
            f"(SLO <= {self.recovery_bound_steps})",
            f"survivor clients bit-identical to golden:     "
            f"{'yes' if self.survivors_bit_identical else 'NO'}",
            f"{'resilience counter':<36}{'total':>8}",
        ]
        for name in sorted(self.chaos_counters):
            lines.append(f"{name:<36}{self.chaos_counters[name]:>8.0f}")
        if self.slo_breaches:
            lines.append("SLO BREACHES:")
            lines.extend(f"  - {breach}" for breach in self.slo_breaches)
        else:
            lines.append("all recovery SLOs met")
        return "\n".join(lines)


_STREAM_LOSS_COUNTERS = (
    "stream.blocked",
    "stream.dropped",
    "stream.shed",
    "stream.invalid_time",
    "stream.late",
    "stream.unknown_client",
)


def _counter_totals(
    recorders: Iterable[TelemetryRecorder], prefix: str
) -> Dict[str, float]:
    from repro.telemetry.metrics import CounterMetric

    totals: Dict[str, float] = {}
    for recorder in recorders:
        for metric in recorder.metrics.metrics():
            if isinstance(metric, CounterMetric) and metric.name.startswith(prefix):
                totals[metric.name] = totals.get(metric.name, 0.0) + metric.value
    return totals


def _estimate_streams_equal(a: List[Any], b: List[Any]) -> bool:
    if len(a) != len(b):
        return False
    return all(x.to_dict() == y.to_dict() for x, y in zip(a, b))


def _subset_factory(
    source: Callable[[], Iterable[Observation]], labels: Iterable[str]
) -> Callable[[], Iterator[Observation]]:
    """A restartable source serving only ``labels`` of the fleet trace."""
    members = frozenset(labels)

    def factory() -> Iterator[Observation]:
        return (obs for obs in source() if obs.client in members)

    return factory


def _collector(sink: Dict[str, List[Any]]) -> Callable[[str, float, Any], None]:
    def on_estimate(label: str, time_s: float, estimate: Any) -> None:
        sink.setdefault(label, []).append(estimate)

    return on_estimate


def run(
    n_clients: int = 64,
    duration_s: float = 30.0,
    seed: SeedLike = 17,
    checkpoint_every_s: float = 2.0,
    kill_at_step: Optional[int] = None,
    report_json: Optional[str] = None,
    strict: bool = True,
    workdir: Optional[str] = None,
) -> ResilienceCampaignResult:
    """One full chaos campaign over a seeded fleet (see module docs)."""
    import os
    import tempfile

    spec = FleetSpec(n_clients=n_clients, duration_s=duration_s)
    labels = SimulatedSource(spec, seed=seed).labels
    dt_s = spec.csi_period_s
    n_steps = spec.n_steps
    horizon_steps = max(5, n_steps // 3)  # small on purpose: force rollovers
    kill_step = kill_at_step if kill_at_step is not None else (2 * n_steps) // 3

    def fleet_trace() -> SimulatedSource:
        return SimulatedSource(spec, seed=seed)

    stable_labels = labels[: n_clients // 2]
    flaky_labels = labels[n_clients // 2 :]
    policy = SupervisorConfig(policy="retry", max_retries=3, backoff_base_s=0.5)

    def sources(flaky_fault: Optional[SourceFault]) -> List[SourceSpec]:
        flaky_factory = _subset_factory(fleet_trace, flaky_labels)
        if flaky_fault is not None:
            inner = flaky_factory

            def wrapped() -> Iterator[Observation]:
                return flaky_fault.wrap(inner())

            flaky_factory = wrapped
        return [
            SourceSpec(
                "stable",
                _subset_factory(fleet_trace, stable_labels),
                clients=tuple(stable_labels),
            ),
            SourceSpec("flaky", flaky_factory, clients=tuple(flaky_labels)),
        ]

    owned_tmp = tempfile.mkdtemp(prefix="resilience-campaign-") if workdir is None else None
    base_dir = workdir if workdir is not None else owned_tmp
    assert base_dir is not None

    def resilience_config(name: str, keep: int = 3) -> ResilienceConfig:
        return ResilienceConfig(
            checkpoint_dir=os.path.join(base_dir, name),
            checkpoint_every_s=checkpoint_every_s,
            keep_checkpoints=keep,
            source_policy=policy,
        )

    n_observations = sum(1 for _ in fleet_trace())

    # ---- golden: one long grid segment, clean sources, no injectors.
    golden: Dict[str, List[Any]] = {}
    golden_service = ResilientService(
        BatchedMobilityClassifier(list(labels)),
        StreamConfig(dt_s=dt_s, horizon_steps=4 * n_steps + 8),
        resilience=resilience_config("golden"),
        on_estimate=_collector(golden),
    )
    golden_service.run(sources(None), until_s=duration_s)

    # ---- nominal: tiny horizon forces rollovers; still clean, still lossless.
    nominal: Dict[str, List[Any]] = {}
    nominal_recorder = TelemetryRecorder()
    nominal_service = ResilientService(
        BatchedMobilityClassifier(list(labels)),
        StreamConfig(dt_s=dt_s, horizon_steps=horizon_steps),
        resilience=resilience_config("nominal"),
        recorder=nominal_recorder,
        on_estimate=_collector(nominal),
    )
    nominal_service.run(sources(None), until_s=duration_s)
    rollover_equivalent = set(golden) == set(nominal) and all(
        _estimate_streams_equal(golden[label], nominal[label]) for label in golden
    )
    nominal_losses = sum(
        _counter_totals([nominal_recorder], "stream.").get(name, 0.0)
        for name in _STREAM_LOSS_COUNTERS
    )

    # ---- chaos: flaky source + hard kill + corrupt-newest-artifact recovery.
    source_fault = SourceFault(at_index=n_observations // 3, n_failures=2)
    kill = ServiceKillFault(at_step=kill_step)
    chaos_sources = sources(source_fault)
    pre_kill: Dict[str, List[Any]] = {}
    chaos_recorder = TelemetryRecorder()
    chaos_service = ResilientService(
        BatchedMobilityClassifier(list(labels)),
        StreamConfig(dt_s=dt_s, horizon_steps=horizon_steps),
        resilience=resilience_config("chaos"),
        recorder=chaos_recorder,
        on_estimate=_collector(pre_kill),
        kill=kill,
    )
    killed = False
    try:
        chaos_service.run(chaos_sources, until_s=duration_s)
    except ServiceKilled:
        killed = True

    # Rot the newest artifact on disk: recovery must refuse it loudly and
    # fall back to the next-newest valid checkpoint.
    corruption = CheckpointCorruptionFault(mode="flip_byte")
    from repro.resilience import list_artifacts

    artifacts = list_artifacts(os.path.join(base_dir, "chaos"))
    if artifacts:
        corruption.corrupt(artifacts[-1])

    post_kill: Dict[str, List[Any]] = {}
    recovery_recorder = TelemetryRecorder()
    recovered = ResilientService.recover(
        resilience_config("chaos"),
        recorder=recovery_recorder,
        on_estimate=_collector(post_kill),
    )
    replayed_steps = kill_step - recovered.total_steps
    resume_clock_s = recovered.clock_s
    recovered.run(chaos_sources, until_s=duration_s)

    # Merge: estimates before the recovered clock were delivered (and kept)
    # by the killed process; the recovered one re-delivers from its restored
    # step onward.
    merged: Dict[str, List[Any]] = {}
    for label in labels:
        kept = [e for e in pre_kill.get(label, []) if e.time_s < resume_clock_s]
        merged[label] = kept + list(post_kill.get(label, []))
    survivors_bit_identical = all(
        _estimate_streams_equal(golden[label], merged[label])
        for label in stable_labels
    )

    recovery_bound_steps = int(2 * math.ceil(checkpoint_every_s / dt_s)) + 1
    chaos_counters = _counter_totals(
        [chaos_recorder, recovery_recorder], "resilience."
    )

    breaches: List[str] = []
    if not rollover_equivalent:
        breaches.append("rollover estimates differ from the single-long-grid golden")
    if nominal_losses > 0:
        breaches.append(f"nominal pass lost {nominal_losses:.0f} observations")
    if not killed:
        breaches.append(
            f"chaos kill at step {kill_step} never fired "
            f"(service ran {chaos_service.total_steps} steps)"
        )
    if replayed_steps < 0 or replayed_steps > recovery_bound_steps:
        breaches.append(
            f"recovery replayed {replayed_steps} steps "
            f"(SLO <= {recovery_bound_steps})"
        )
    if not survivors_bit_identical:
        breaches.append("surviving clients' estimates are not bit-identical to golden")
    for required in (
        "resilience.rollovers",
        "resilience.checkpoints",
        "resilience.source_failures",
        "resilience.source_retries",
        "resilience.corrupt_artifacts",
        "resilience.recoveries",
    ):
        if chaos_counters.get(required, 0.0) <= 0:
            breaches.append(f"failure went uncounted: {required} == 0")

    result = ResilienceCampaignResult(
        n_clients=n_clients,
        n_steps=n_steps,
        n_observations=n_observations,
        n_estimates_golden=sum(len(v) for v in golden.values()),
        nominal_rollovers=nominal_service.rollovers,
        nominal_losses=nominal_losses,
        rollover_equivalent=rollover_equivalent,
        kill_step=kill_step,
        recovery_replayed_steps=replayed_steps,
        recovery_bound_steps=recovery_bound_steps,
        survivors_bit_identical=survivors_bit_identical,
        chaos_counters=chaos_counters,
        slo_breaches=breaches,
    )
    if report_json is not None:
        with open(report_json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if strict and not result.ok:
        raise RuntimeError(
            "resilience chaos campaign breached its recovery SLOs: "
            + "; ".join(result.slo_breaches)
        )
    return result
