"""Extension study — the classifier as a long-running streaming service.

The paper's evaluation is batch-shaped: collect a trace, replay it
through the classifier, read the decisions.  A deployed AP-side agent
cannot work that way — observations arrive interleaved across the whole
fleet, queues back up, clients go idle, and the process restarts.  This
study runs the same seeded fleet trace through both paths and checks the
streaming service's core contracts end to end:

* **equivalence** — estimates from the :class:`repro.stream.StreamRouter`
  are bit-identical to the batch
  :class:`repro.sim.BatchedSensingSession` run on the same trace;
* **resume** — a mid-trace :func:`repro.stream.save_checkpoint` /
  :func:`repro.stream.load_checkpoint` restart produces the same
  estimates as the uninterrupted service;
* **nominal losslessness** — with sanely provisioned queues the sweep
  accepts every observation (zero blocked/dropped/shed), and every
  counter that could hide a loss is reported;
* **overload accounting** — an undersized-queue pass under
  ``drop_oldest`` shows losses are *counted*, never silent.

The CI streaming sweep runs this experiment (``python -m
repro.experiments stream --quick``) and fails on any contract breach;
``benchmarks/test_streaming.py`` measures the same service for
throughput (sessions/sec, offer-latency percentiles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.batched import BatchedMobilityClassifier
from repro.core.classifier import ClassifierConfig
from repro.sim import BatchedSensingSession, SimulationEngine, TimeGrid
from repro.stream import (
    FleetSpec,
    SimulatedSource,
    StreamConfig,
    StreamRouter,
    checkpoint_state,
    restore_router,
)
from repro.telemetry.recorder import TelemetryRecorder
from repro.util.rng import SeedLike


@dataclass
class StreamingSweepResult:
    """Contract checks plus loss accounting for one streaming sweep."""

    n_clients: int
    n_steps: int
    n_observations: int
    n_estimates: int
    equivalent_to_batch: bool
    resume_equivalent: bool
    nominal_counters: Dict[str, float] = field(default_factory=dict)
    overload_counters: Dict[str, float] = field(default_factory=dict)

    @property
    def nominal_losses(self) -> float:
        """Observations the nominal sweep failed to ingest, any cause."""
        return sum(
            self.nominal_counters.get(name, 0.0)
            for name in ("stream.blocked", "stream.dropped", "stream.shed",
                         "stream.invalid_time", "stream.late",
                         "stream.unknown_client")
        )

    def format_report(self) -> str:
        lines = [
            "Extension — streaming ingestion service",
            f"fleet: {self.n_clients} clients, {self.n_steps} engine steps, "
            f"{self.n_observations} observations, {self.n_estimates} estimates",
            f"stream == batch (bit-identical):   {'yes' if self.equivalent_to_batch else 'NO'}",
            f"kill+resume == uninterrupted:      {'yes' if self.resume_equivalent else 'NO'}",
            f"nominal losses (must be 0):        {self.nominal_losses:.0f}",
        ]
        lines.append(f"{'counter':<28}{'nominal':>10}{'overload':>10}")
        names = sorted(set(self.nominal_counters) | set(self.overload_counters))
        for name in names:
            lines.append(
                f"{name:<28}"
                f"{self.nominal_counters.get(name, 0.0):>10.0f}"
                f"{self.overload_counters.get(name, 0.0):>10.0f}"
            )
        return "\n".join(lines)


_LOSS_COUNTERS = (
    "stream.accepted",
    "stream.blocked",
    "stream.dropped",
    "stream.evicted",
    "stream.invalid_time",
    "stream.late",
    "stream.revived",
    "stream.shed",
    "stream.shed_sessions",
    "stream.unknown_client",
)


def _counter_totals(recorder: TelemetryRecorder) -> Dict[str, float]:
    """Per-name totals (summed over clients) of the ingestion counters."""
    from repro.telemetry.metrics import CounterMetric

    totals: Dict[str, float] = {}
    for metric in recorder.metrics.metrics():
        if isinstance(metric, CounterMetric) and metric.name in _LOSS_COUNTERS:
            totals[metric.name] = totals.get(metric.name, 0.0) + metric.value
    return totals


def _estimates_equal(a: Dict[str, List], b: Dict[str, List]) -> bool:
    if set(a) != set(b):
        return False
    for label in a:
        if len(a[label]) != len(b[label]):
            return False
        for x, y in zip(a[label], b[label]):
            if x.to_dict() != y.to_dict():
                return False
    return True


def _stream_trace(
    source: SimulatedSource,
    config: StreamConfig,
    recorder: TelemetryRecorder,
    checkpoint_at_s: float = -1.0,
) -> Dict[str, List]:
    """Feed the whole trace through a router; optionally restart mid-way."""
    classifier = BatchedMobilityClassifier(source.labels, ClassifierConfig())
    router = StreamRouter(classifier, config=config, recorder=recorder)
    end_s = config.start_s + (config.horizon_steps - 1) * config.dt_s
    restarted = False
    for observation in source:
        if not restarted and checkpoint_at_s >= 0 and observation.time_s >= checkpoint_at_s:
            state = checkpoint_state(router)
            router = restore_router(state, recorder=recorder)
            restarted = True
        router.offer(observation)
        router.advance(observation.time_s - config.dt_s)
    router.advance(end_s)
    return router.results()


def run(
    n_clients: int = 256,
    duration_s: float = 30.0,
    seed: SeedLike = 17,
) -> StreamingSweepResult:
    """One full streaming sweep over a seeded fleet (see module docs)."""
    spec = FleetSpec(n_clients=n_clients, duration_s=duration_s)
    source = SimulatedSource(spec, seed=seed)
    n_observations = sum(1 for _ in source)

    # Batch baseline: the trace in array form through the batch session.
    csi_by_client, tof_times, tof_readings = source.batch_inputs()
    batch_classifier = BatchedMobilityClassifier(source.labels, ClassifierConfig())
    grid = TimeGrid.regular(0.0, spec.csi_period_s, spec.n_steps)
    engine = SimulationEngine(grid)
    engine.add(
        BatchedSensingSession(batch_classifier, csi_by_client, tof_times, tof_readings)
    )
    batch_results = engine.run()

    # Nominal streaming pass: provisioned queues, block policy, no losses.
    nominal_config = StreamConfig(
        dt_s=spec.csi_period_s,
        horizon_steps=spec.n_steps,
        queue_capacity=max(64, 2 * int(spec.csi_period_s / spec.tof_interval_s) + 2),
        backpressure="block",
    )
    nominal_recorder = TelemetryRecorder()
    stream_results = _stream_trace(source, nominal_config, nominal_recorder)

    # Kill-and-resume pass: checkpoint at mid-trace, restore, keep feeding.
    resume_recorder = TelemetryRecorder()
    resume_results = _stream_trace(
        source, nominal_config, resume_recorder, checkpoint_at_s=duration_s / 2
    )

    # Overload pass: starved queues under drop_oldest — losses are counted.
    overload_config = StreamConfig(
        dt_s=spec.csi_period_s,
        horizon_steps=spec.n_steps,
        queue_capacity=2,
        backpressure="drop_oldest",
    )
    overload_recorder = TelemetryRecorder()
    _stream_trace(source, overload_config, overload_recorder)

    return StreamingSweepResult(
        n_clients=n_clients,
        n_steps=spec.n_steps,
        n_observations=n_observations,
        n_estimates=sum(len(v) for v in stream_results.values()),
        equivalent_to_batch=_estimates_equal(batch_results, stream_results),
        resume_equivalent=_estimates_equal(stream_results, resume_results),
        nominal_counters=_counter_totals(nominal_recorder),
        overload_counters=_counter_totals(overload_recorder),
    )
