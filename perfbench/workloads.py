"""The three benchmark workloads: seeded inputs, timed units, checks.

Every workload is one single-threaded closed loop in one process: the
next call into the program is made only after the previous one has
returned.  A run repeats a *unit* of work (one storm, or one whole
service lifetime over a seeded trace) until ``seconds`` of timed work
have been spent, with at least two units, and reports medians over the
units.  Each unit sets itself up afresh; that set-up is timed on its
own (``setup_s``) and is not part of the timed phase.

With ``trace=True`` the run first times one unit untraced, then wraps
the public calls into each layer (:mod:`tracing`) and times traced
units; the per-layer metrics come from the traced units and
``trace.overhead`` compares the two.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from hostspeed import ProbedClock
from checks import (
    check_offer_accounting,
    check_recovery,
    check_same_digest,
    check_storm_epochs,
    check_storm_hints,
    check_stream_equals_batch,
    estimate_digests,
    storm_digest,
)
from tracing import LAYERS, Tracer, format_layer_table

# The untimed and timed paths use only these public names; the traced
# run resolves its wrap targets by name (see ``_install``), so a class
# that moves or disappears reads as zero calls instead of an import error.
from repro.controller import Controller, MobilityHintPolicy
from repro.core import BatchedMobilityClassifier
from repro.experiments.ext_controller import build_storm, run_storm
from repro.resilience import ResilienceConfig, ResilientService
from repro.sim import BatchedSensingSession, SimulationEngine, TimeGrid
from repro.stream import FleetSpec, Observation, SimulatedSource, StreamConfig
from repro.telemetry import NULL_RECORDER, CounterMetric, TelemetryRecorder
from repro.wlan import MultiApChannel, grid_floorplan

WORKLOADS: Tuple[str, ...] = ("sim_storm", "service_live", "service_quiet")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "client_steps_per_s": "1/s",
    "obs_per_s": "1/s",
    "hint_delay_ms_p50": "ms",
    "hint_delay_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER: Dict[str, str] = {
    "telemetry.self_s": "s",
    "telemetry.share": "ratio",
    "telemetry.hook_calls": "count",
    "telemetry.hooks_per_obs": "ratio",
    "telemetry.series": "count",
    "stream.self_s": "s",
    "stream.backlog_reads": "count",
    "stream.backlog_s": "s",
    "stream.offer_us_p50": "us",
    "stream.offer_us_p99": "us",
    "stream.offers": "count",
    "stream.accepted": "count",
    "stream.refused": "count",
    "stream.refused_share": "ratio",
    "stream.advance_calls": "count",
    "stream.advance_noop_share": "ratio",
    "stream.advance_ms_per_step": "ms",
    "stream.backlog_max": "count",
    "resilience.self_s": "s",
    "resilience.save_ms_p50": "ms",
    "resilience.save_ms_p99": "ms",
    "resilience.saves": "count",
    "resilience.artifact_bytes": "B",
    "resilience.bytes_per_session": "B",
    "resilience.encode_s": "s",
    "resilience.decode_s": "s",
    "resilience.rollover_ms": "ms",
    "resilience.recovery_ms": "ms",
    "sim.self_s": "s",
    "sim.sense_s": "s",
    "sim.classify_s": "s",
    "sim.classify_us_per_client_step": "us",
    "sim.steps": "count",
    "sim.step_self_s": "s",
    "channel.self_s": "s",
    "channel.share": "ratio",
    "channel.calls": "count",
    "channel.us_per_link_step": "us",
    "channel.measured_csi_s": "s",
    "mobility.self_s": "s",
    "mobility.sample_s": "s",
    "mobility.share": "ratio",
    "phy.self_s": "s",
    "phy.tof_sample_s": "s",
    "controller.self_s": "s",
    "controller.epoch_ms_p50": "ms",
    "controller.observe_s": "s",
    "controller.epochs": "count",
    "controller.handovers": "count",
    "controller.pingpong": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads (the defaults are the benchmark;
    the smoke test runs tiny ones)."""

    storm_clients: int = 200
    storm_duration_s: float = 30.0
    warmup_clients: int = 8
    warmup_duration_s: float = 4.0
    live_sessions: int = 256
    quiet_sessions: int = 1024
    quiet_late_share: float = 0.01
    quiet_unknown_share: float = 0.005
    service_duration_s: float = 50.0


#: APs of the storm floor plan, ``grid_floorplan(nx, ny)``.
STORM_AP_GRID = (4, 2)
#: Every n-th client of a service fleet walks (ToF-heavy vs CSI-heavy mix).
LIVE_WALKING_EVERY = 8
QUIET_WALKING_EVERY = 32
CHECKPOINT_EVERY_S = 2.0
#: Timed units per untraced run, at least; set-ups and ``recover()``
#: calls per run whose median is reported.
MIN_UNITS = 2
SETUPS = 5
#: ``run_storm`` calls per untraced storm unit on the unit's inputs; the
#: first is timed with ``build_storm``, and all give hint-delay samples.
STORM_RUNS = 5
RECOVERIES = 3
#: Probes run right after a set-up that no timed unit follows.
SETUP_PROBES = 50


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]
    notes: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_units(seconds: float, min_units: int, unit: Callable[[], Any]) -> List[Any]:
    """Run ``unit()`` until ``seconds`` of timed work are spent.

    Starts another unit only while the mean unit so far would still end
    within the budget; runs at least ``min_units``.
    """
    results: List[Any] = []
    spent = 0.0
    while True:
        # Start each unit without garbage left over from the previous one.
        gc.collect()
        result = unit()
        results.append(result)
        spent += result.wall_s
        if len(results) >= min_units and spent + spent / len(results) > seconds:
            return results


# ================================================================ sim_storm


@dataclass
class StormUnit:
    wall_s: float
    setup_s: float
    client_steps: int
    observations: int
    delays_s: List[float]
    digest: str
    failures: List[str]
    missing: int
    totals: Dict[str, int]
    epochs: int
    #: Reference seconds per host second (:meth:`ProbedClock.scale`) over
    #: the unit, weighted by phase.
    scale: float = 1.0
    #: ``delays_s`` at the reference speed: each ``run_storm`` call's
    #: delays times the scale probed during that call.
    ref_delays_s: List[float] = field(default_factory=list)


class HintTap:
    """Timestamps every hint ``run_storm`` hands to its controller.

    ``run_storm`` wires the sensing cohort's ``on_estimate`` to
    :meth:`repro.controller.Controller.update_hint`; the tap wraps that
    method for the duration of a ``with`` block.  Timestamps come from
    ``clock``; with ``probe=True`` the clock also probes the host speed
    at each step's first hint.
    """

    def __init__(self, clock: ProbedClock, probe: bool) -> None:
        self.deliveries: List[Tuple[str, Any, float]] = []
        self.delays_s: List[float] = []
        self.clock = clock
        self.probe = probe
        self._original: Any = None

    def __enter__(self) -> "HintTap":
        original = Controller.__dict__["update_hint"]
        deliveries = self.deliveries
        clock = self.clock
        probe = self.probe
        last_step_s = [float("-inf")]

        def update_hint(controller: Controller, client: Any, estimate: Any) -> None:
            original(controller, client, estimate)
            deliveries.append((client, estimate, clock.now()))
            if probe and estimate.time_s > last_step_s[0]:
                last_step_s[0] = estimate.time_s
                clock.sample()

        self._original = original
        Controller.update_hint = update_hint  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        Controller.update_hint = self._original  # type: ignore[method-assign]

    def step_delays(self, started: float) -> None:
        """Fill :attr:`delays_s`: for each step, the time from the previous
        step's last hint (or from ``started``) to this step's last hint."""
        last_by_step: Dict[float, float] = {}
        for _, estimate, at in self.deliveries:
            last_by_step[float(estimate.time_s)] = at
        previous = started
        for step_s in sorted(last_by_step):
            self.delays_s.append(last_by_step[step_s] - previous)
            previous = last_by_step[step_s]


def _storm_setup(seed: int, sizes: Sizes) -> float:
    """Construct the storm's fixed parts and warm the pipeline once on a
    small storm, so lazy first-call costs stay out of the timed phase."""
    started = perf_counter()
    floorplan = grid_floorplan(*STORM_AP_GRID)
    warm = build_storm(
        sizes.warmup_clients,
        floorplan=floorplan,
        duration_s=sizes.warmup_duration_s,
        seed=seed,
    )
    run_storm(warm, MobilityHintPolicy())
    return perf_counter() - started


def _storm_unit(seed: int, sizes: Sizes, tracer: Optional[Tracer]) -> StormUnit:
    setup_s = _storm_setup(seed, sizes)
    floorplan = grid_floorplan(*STORM_AP_GRID)
    gc.collect()
    if tracer is not None:
        _storm_wrappers(tracer)
    # The untraced unit probes the host speed after each client's channel
    # evaluation in build_storm and at each step of run_storm.
    clock = ProbedClock()
    probe = tracer is None
    try:
        started = clock.now()
        with _span(tracer, "workload.build_storm"), (
            clock.after_calls(MultiApChannel, "evaluate") if probe else contextlib.nullcontext()
        ):
            inputs = build_storm(
                sizes.storm_clients,
                floorplan=floorplan,
                duration_s=sizes.storm_duration_s,
                seed=seed,
            )
        build_probes = len(clock.samples)
        with _span(tracer, "workload.run_storm"):
            run_s, run_scale, result, tap = _tapped_storm(inputs, clock, probe)
        wall_s = clock.now() - started
    finally:
        if tracer is not None:
            tracer.restore()

    n_steps = len(inputs.grid_times)
    hint_times: Dict[str, List[float]] = {}
    for label, estimate, _ in tap.deliveries:
        hint_times.setdefault(label, []).append(float(estimate.time_s))
    failures, missing = check_storm_hints(hint_times, inputs.labels, inputs.grid_times)
    failures += check_storm_epochs(result.epoch_times, n_steps, inputs.epoch_every)
    digest = _storm_digest(result, tap)

    # The untraced unit calls run_storm again on the same inputs, for
    # more hint-delay samples; each call must simulate the same storm.
    delays_s = list(tap.delays_s)
    ref_delays_s = [d * run_scale for d in tap.delays_s]
    for _ in range(STORM_RUNS - 1 if probe else 0):
        _, again_scale, again, again_tap = _tapped_storm(inputs, clock, probe)
        failures += check_same_digest([digest, _storm_digest(again, again_tap)])
        delays_s += again_tap.delays_s
        ref_delays_s += [d * again_scale for d in again_tap.delays_s]
    observations = sum(len(c) for c in inputs.csi_by_client) + sum(
        len(r) for r in inputs.tof_readings
    )
    return StormUnit(
        wall_s=wall_s,
        setup_s=setup_s,
        client_steps=inputs.n_clients * n_steps,
        observations=observations,
        delays_s=delays_s,
        digest=digest,
        failures=failures,
        missing=missing,
        totals=dict(result.totals),
        epochs=len(result.epoch_times),
        scale=((wall_s - run_s) * clock.scale(0, build_probes) + run_s * run_scale) / wall_s,
        ref_delays_s=ref_delays_s,
    )


def _tapped_storm(
    inputs: Any, clock: ProbedClock, probe: bool
) -> Tuple[float, float, Any, HintTap]:
    """One ``run_storm`` call with its hints tapped; returns its time and
    the host-speed scale probed during it too."""
    first = len(clock.samples)
    with HintTap(clock, probe) as tap:
        started = clock.now()
        result = run_storm(inputs, MobilityHintPolicy())
    run_s = clock.now() - started
    tap.step_delays(started)
    return run_s, clock.scale(first), result, tap


def _storm_digest(result: Any, tap: HintTap) -> str:
    return storm_digest(
        [(label, estimate) for label, estimate, _ in tap.deliveries],
        result.totals,
        result.epoch_times,
        result.association_timeline,
    )


def _storm_wrappers(tracer: Tracer) -> None:
    _install(tracer, STORM_TARGETS + SIM_TARGETS)
    mobility = importlib.import_module("repro.mobility")
    for name in getattr(mobility, "__all__", ()):
        obj = getattr(mobility, name)
        if isinstance(obj, type) and "sample" in obj.__dict__:
            tracer.wrap(obj, "sample", "mobility.sample")


def run_sim_storm(
    seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()
) -> Outcome:
    reference_wall_s = 0.0
    if trace:
        reference_wall_s = _storm_unit(seed, sizes, None).wall_s
    tracer = Tracer(durations_of=("controller.run_epoch",)) if trace else None
    budget = max(seconds - reference_wall_s, 0.0)
    units = _run_units(
        budget, 1 if trace else MIN_UNITS, lambda: _storm_unit(seed, sizes, tracer)
    )
    peak_rss_mb = _peak_rss_mb()

    failures: List[str] = []
    for u in units:
        failures += u.failures
    failures += check_same_digest(u.digest for u in units)
    notes = [
        f"storm digest {units[0].digest[:16]} totals {units[0].totals} "
        f"epochs {units[0].epochs}"
    ]
    attempted = sum(u.client_steps for u in units)
    failed = sum(u.missing for u in units)

    if tracer is None:
        setups = [(u.setup_s, u.scale) for u in units]
        while len(setups) < SETUPS:
            gc.collect()
            setup_s = _storm_setup(seed, sizes)
            setups.append((setup_s, _probe_scale(SETUP_PROBES)))
        metrics = _end_to_end(
            setups,
            [
                (u.wall_s, u.scale, u.client_steps, u.observations, u.delays_s, u.ref_delays_s)
                for u in units
            ],
            peak_rss_mb,
            notes,
        )
        return Outcome(metrics, attempted, failed, failures, notes)

    n = len(units)
    wall_s = sum(u.wall_s for u in units)
    metrics = _layer_metrics(tracer, wall_s, n, reference_wall_s)
    link_steps = units[0].client_steps * STORM_AP_GRID[0] * STORM_AP_GRID[1]
    channel_calls, _, _ = tracer.stat("channel.evaluate")
    _, csi_s, _ = tracer.stat("channel.measured_csi")
    _, sample_s, _ = tracer.stat("mobility.sample")
    _, tof_s, _ = tracer.stat("phy.tof_sample")
    _, observe_s, _ = tracer.stat("controller.observe")
    metrics.update(
        {
            "channel.calls": channel_calls / n,
            "channel.us_per_link_step": metrics["channel.self_s"] * 1e6 / link_steps,
            "channel.measured_csi_s": csi_s / n,
            "mobility.sample_s": sample_s / n,
            "phy.tof_sample_s": tof_s / n,
            "controller.epoch_ms_p50": _percentile(
                tracer.durations["controller.run_epoch"], 50
            )
            * 1e3,
            "controller.observe_s": observe_s / n,
            "controller.epochs": float(units[0].epochs),
            "controller.handovers": float(units[0].totals.get("handovers", 0)),
            "controller.pingpong": float(units[0].totals.get("pingpong", 0)),
        }
    )
    _add_sim_metrics(metrics, tracer, n, sizes.storm_clients)
    notes.append(format_layer_table("sim_storm", tracer, wall_s, metrics["trace.overhead"]))
    return Outcome(metrics, attempted, failed, failures, notes, tracer)


# ================================================================ services


@dataclass
class ServiceInputs:
    spec: FleetSpec
    labels: List[str]
    observations: List[Observation]
    injected: List[bool]

    @property
    def n_injected(self) -> int:
        return sum(self.injected)


def service_inputs(
    seed: int,
    n_sessions: int,
    walking_every: int,
    duration_s: float,
    late_share: float = 0.0,
    unknown_share: float = 0.0,
) -> ServiceInputs:
    """The seeded observation trace a service workload offers.

    A :class:`repro.stream.SimulatedSource` fleet trace, with a seeded
    share of injected observations after real ones: stale re-offers of
    an earlier observation at least two steps old (refused as late) and
    observations from clients outside the cohort (refused as unknown).
    """
    spec = FleetSpec(n_clients=n_sessions, duration_s=duration_s, walking_every=walking_every)
    source = SimulatedSource(spec, seed=seed)
    real = list(source)
    if late_share <= 0 and unknown_share <= 0:
        return ServiceInputs(spec, list(source.labels), real, [False] * len(real))
    rng = np.random.default_rng([seed, 7])
    draw = rng.random(len(real))
    pick = rng.random(len(real))
    times = [obs.time_s for obs in real]
    observations: List[Observation] = []
    injected: List[bool] = []
    for j, obs in enumerate(real):
        observations.append(obs)
        injected.append(False)
        if draw[j] < late_share:
            # After this offer the loop advances to obs.time_s - dt, so
            # every step at or before obs.time_s - 2 dt has run.
            bound = bisect.bisect_right(times, obs.time_s - 2 * spec.csi_period_s)
            if bound > 0:
                observations.append(real[int(pick[j] * bound)])
                injected.append(True)
        elif draw[j] < late_share + unknown_share:
            observations.append(Observation(f"unknown-{j}", obs.time_s, "tof", 200.0))
            injected.append(True)
    return ServiceInputs(spec, list(source.labels), observations, injected)


def batch_reference(seed: int, spec: FleetSpec) -> Dict[str, Any]:
    """A one-shot batch engine run over the same seeded fleet trace."""
    source = SimulatedSource(spec, seed=seed)
    csi_by_client, tof_times, tof_readings = source.batch_inputs()
    engine = SimulationEngine(TimeGrid.regular(0.0, spec.csi_period_s, spec.n_steps))
    engine.add(
        BatchedSensingSession(
            BatchedMobilityClassifier(list(source.labels)),
            csi_by_client,
            tof_times,
            tof_readings,
        )
    )
    return engine.run()


@dataclass
class ServiceUnit:
    wall_s: float
    setup_s: float
    offers: int
    accepted: int
    refused: int
    misjudged: int
    n_injected: int
    client_steps: int
    delays_s: List[float]
    state: Tuple[float, int, int]
    digests: Dict[str, str]
    counters: Optional[Dict[str, float]]
    series: int
    advance_calls: int = 0
    advance_noops: int = 0
    backlog_max: int = 0
    #: Reference seconds per host second (:meth:`ProbedClock.scale`).
    scale: float = 1.0


def _counter_totals(recorder: TelemetryRecorder) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for metric in recorder.metrics.metrics():
        if isinstance(metric, CounterMetric):
            totals[metric.name] = totals.get(metric.name, 0.0) + metric.value
    return totals


@dataclass(frozen=True)
class ServiceShape:
    live: bool
    n_sessions: int
    walking_every: int
    late_share: float
    unknown_share: float


def _service_shape(workload: str, sizes: Sizes) -> ServiceShape:
    if workload == "service_live":
        return ServiceShape(True, sizes.live_sessions, LIVE_WALKING_EVERY, 0.0, 0.0)
    return ServiceShape(
        False,
        sizes.quiet_sessions,
        QUIET_WALKING_EVERY,
        sizes.quiet_late_share,
        sizes.quiet_unknown_share,
    )


def _resilience_config(directory: str) -> ResilienceConfig:
    return ResilienceConfig(checkpoint_dir=directory, checkpoint_every_s=CHECKPOINT_EVERY_S)


def _service_setup(
    seed: int, shape: ServiceShape, sizes: Sizes, directory: str, sink: Any
) -> Tuple[ServiceInputs, ResilientService, Any]:
    inputs = service_inputs(
        seed,
        shape.n_sessions,
        shape.walking_every,
        sizes.service_duration_s,
        shape.late_share,
        shape.unknown_share,
    )
    recorder = TelemetryRecorder() if shape.live else NULL_RECORDER
    service = ResilientService(
        BatchedMobilityClassifier(list(inputs.labels)),
        StreamConfig(dt_s=inputs.spec.csi_period_s, horizon_steps=max(5, inputs.spec.n_steps // 3)),
        resilience=_resilience_config(directory),
        recorder=recorder,
        on_estimate=sink,
    )
    return inputs, service, recorder


def _service_unit(
    seed: int,
    shape: ServiceShape,
    sizes: Sizes,
    directory: str,
    tracer: Optional[Tracer] = None,
    counts: Optional[Dict[str, float]] = None,
) -> ServiceUnit:
    shutil.rmtree(directory, ignore_errors=True)
    # Steps whose first estimate has been delivered, and how many of them
    # the advance() call in progress delivered.
    steps_seen: Set[float] = set()
    delivered = [0]

    def sink(label: str, time_s: float, estimate: Any) -> None:
        if time_s not in steps_seen:
            steps_seen.add(time_s)
            delivered[0] += 1

    started = perf_counter()
    inputs, service, recorder = _service_setup(seed, shape, sizes, directory, sink)
    setup_s = perf_counter() - started
    gc.collect()

    dt_s = inputs.spec.csi_period_s
    end_s = (inputs.spec.n_steps - 1) * dt_s
    offer = service.offer
    advance = service.advance
    accepted = misjudged = 0
    advance_calls = advance_noops = backlog_max = 0
    delays_s: List[float] = []
    clock = ProbedClock()
    if tracer is None:
        # The measured loop: offer, trail with advance, and only the
        # timestamps the hint delay needs.  Every step an advance() call
        # delivers was made due by the offer just before it, and its
        # delay ends when that call returns, so it takes in the
        # checkpoint saves and rollovers run in the same call.  After a
        # call that delivered steps the host-speed probe runs once; its
        # time is left out of the wall time.
        now = clock.now
        started = now()
        for observation, injected in zip(inputs.observations, inputs.injected):
            offer_started = now()
            ok = offer(observation)
            accepted += ok
            misjudged += ok == injected
            advance(observation.time_s - dt_s)
            if delivered[0]:
                delays_s.extend([now() - offer_started] * delivered[0])
                delivered[0] = 0
                clock.sample()
        offer_started = now()
        advance(end_s)
        if delivered[0]:
            delays_s.extend([now() - offer_started] * delivered[0])
        wall_s = now() - started
    else:
        # The traced loop also counts advance calls that ran no step and
        # samples the backlog once per step, through the unwrapped getter.
        backlog = type(getattr(service, "router", None)).__dict__.get("backlog")
        read_backlog = backlog.fget if isinstance(backlog, property) else None
        _service_wrappers(tracer, counts if counts is not None else {})
        try:
            started = perf_counter()
            for observation, injected in zip(inputs.observations, inputs.injected):
                ok = offer(observation)
                accepted += ok
                misjudged += ok == injected
                until_s = observation.time_s - dt_s
                if read_backlog is not None and until_s >= service.clock_s:
                    backlog_max = max(backlog_max, read_backlog(service.router))
                before = service.total_steps
                advance(until_s)
                advance_calls += 1
                advance_noops += service.total_steps == before
            advance(end_s)
            wall_s = perf_counter() - started
        finally:
            tracer.restore()

    service.checkpoint_now()
    offers = len(inputs.observations)
    return ServiceUnit(
        wall_s=wall_s,
        setup_s=setup_s,
        offers=offers,
        accepted=accepted,
        refused=offers - accepted,
        misjudged=misjudged,
        n_injected=inputs.n_injected,
        client_steps=shape.n_sessions * service.total_steps,
        delays_s=delays_s,
        state=(service.clock_s, service.rollovers, service.total_steps),
        digests=estimate_digests(service.estimates),
        counters=_counter_totals(recorder) if shape.live else None,
        series=len(recorder.metrics) if shape.live else 0,
        advance_calls=advance_calls,
        advance_noops=advance_noops,
        backlog_max=backlog_max,
        scale=clock.scale(),
    )


def _service_wrappers(tracer: Tracer, counts: Dict[str, float]) -> None:
    def artifact(path: Any) -> None:
        try:
            size = os.path.getsize(path)
        except (OSError, TypeError):
            return
        counts["artifact_bytes"] = max(counts.get("artifact_bytes", 0.0), float(size))

    _install(tracer, SERVICE_TARGETS + SIM_TARGETS, {"resilience.save": artifact})


def run_service(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    sizes: Sizes = Sizes(),
) -> Outcome:
    shape = _service_shape(workload, sizes)
    unit_dir = os.path.join(workdir, "checkpoints")

    reference_wall_s = 0.0
    if trace:
        reference_wall_s = _service_unit(seed, shape, sizes, unit_dir).wall_s
    tracer = (
        Tracer(durations_of=("stream.offer", "resilience.save", "resilience.rollover"))
        if trace
        else None
    )
    counts: Dict[str, float] = {}
    budget = max(seconds - reference_wall_s, 0.0)
    units = _run_units(
        budget,
        1 if trace else MIN_UNITS,
        lambda: _service_unit(seed, shape, sizes, unit_dir, tracer, counts),
    )
    # Read before the batch reference is built, so its memory stays out.
    peak_rss_mb = _peak_rss_mb()

    batch = batch_reference(
        seed,
        FleetSpec(
            n_clients=shape.n_sessions,
            duration_s=sizes.service_duration_s,
            walking_every=shape.walking_every,
        ),
    )
    failures: List[str] = []
    for u in units:
        failures.extend(check_stream_equals_batch(u.digests, batch))
        failures.extend(
            check_offer_accounting(
                u.offers,
                u.accepted,
                u.refused,
                misjudged=u.misjudged,
                expected_refused=u.n_injected,
                counters=u.counters,
            )
        )
    del batch

    recovery_s: List[float] = []
    config = _resilience_config(unit_dir)
    for _ in range(RECOVERIES):
        started = perf_counter()
        recovered = ResilientService.recover(
            config, recorder=TelemetryRecorder() if shape.live else NULL_RECORDER
        )
        recovery_s.append(perf_counter() - started)
        failures.extend(
            check_recovery(
                units[-1].state,
                (recovered.clock_s, recovered.rollovers, recovered.total_steps),
            )
        )

    offers = sum(u.offers for u in units)
    refused = sum(u.refused for u in units)
    recovery_ms = statistics.median(recovery_s) * 1e3
    notes = [
        f"units {len(units)}, offers/unit {units[0].offers}, refused/unit {units[0].refused}, "
        f"final (clock_s, rollovers, total_steps) {units[-1].state}",
        f"recovery_ms {recovery_ms:.3f} ms (median of {len(recovery_s)}), "
        f"refused_share {refused / offers:.6f} ratio",
    ]
    if tracer is None:
        setups = [(u.setup_s, u.scale) for u in units]
        extra_dir = os.path.join(workdir, "setup")
        while len(setups) < SETUPS:
            shutil.rmtree(extra_dir, ignore_errors=True)
            gc.collect()
            started = perf_counter()
            _service_setup(seed, shape, sizes, extra_dir, None)
            setup_s = perf_counter() - started
            setups.append((setup_s, _probe_scale(SETUP_PROBES)))
        metrics = _end_to_end(
            setups,
            [
                (u.wall_s, u.scale, u.client_steps, u.offers, u.delays_s,
                 [d * u.scale for d in u.delays_s])
                for u in units
            ],
            peak_rss_mb,
            notes,
        )
        return Outcome(metrics, offers, sum(u.misjudged for u in units), failures, notes)

    n = len(units)
    wall_s = sum(u.wall_s for u in units)
    metrics = _layer_metrics(tracer, wall_s, n, reference_wall_s)
    backlog_reads, backlog_s, _ = tracer.stat("stream.backlog")
    _, advance_s, _ = tracer.stat("stream.advance")
    _, encode_s, _ = tracer.stat("resilience.encode")
    _, decode_s, _ = tracer.stat("resilience.decode")
    saves, _, _ = tracer.stat("resilience.save")
    steps = sum(u.state[2] for u in units)
    advance_calls = sum(u.advance_calls for u in units)
    hook_calls = tracer.layer_entries("telemetry")
    artifact_bytes = counts.get("artifact_bytes", 0.0)
    metrics.update(
        {
            "telemetry.hook_calls": hook_calls / n,
            "telemetry.hooks_per_obs": hook_calls / offers,
            "telemetry.series": float(units[-1].series),
            "stream.backlog_reads": backlog_reads / n,
            "stream.backlog_s": backlog_s / n,
            "stream.offer_us_p50": _percentile(tracer.durations["stream.offer"], 50) * 1e6,
            "stream.offer_us_p99": _percentile(tracer.durations["stream.offer"], 99) * 1e6,
            "stream.offers": offers / n,
            "stream.accepted": sum(u.accepted for u in units) / n,
            "stream.refused": refused / n,
            "stream.refused_share": refused / offers,
            "stream.advance_calls": advance_calls / n,
            "stream.advance_noop_share": (
                sum(u.advance_noops for u in units) / advance_calls if advance_calls else 0.0
            ),
            "stream.advance_ms_per_step": advance_s * 1e3 / steps if steps else 0.0,
            "stream.backlog_max": float(max(u.backlog_max for u in units)),
            "resilience.save_ms_p50": _percentile(tracer.durations["resilience.save"], 50) * 1e3,
            "resilience.save_ms_p99": _percentile(tracer.durations["resilience.save"], 99) * 1e3,
            "resilience.saves": saves / n,
            "resilience.artifact_bytes": artifact_bytes,
            "resilience.bytes_per_session": artifact_bytes / shape.n_sessions,
            "resilience.encode_s": encode_s / n,
            "resilience.decode_s": decode_s / n,
            "resilience.rollover_ms": _percentile(tracer.durations["resilience.rollover"], 50)
            * 1e3,
            "resilience.recovery_ms": recovery_ms,
        }
    )
    _add_sim_metrics(metrics, tracer, n, shape.n_sessions)
    notes.append(format_layer_table(workload, tracer, wall_s, metrics["trace.overhead"]))
    return Outcome(metrics, offers, sum(u.misjudged for u in units), failures, notes, tracer)


# ================================================================ shared


def _span(tracer: Optional[Tracer], name: str) -> Any:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _probe_scale(n: int) -> float:
    clock = ProbedClock()
    for _ in range(n):
        clock.sample()
    return clock.scale()


def _end_to_end(
    setups: Sequence[Tuple[float, float]],
    units: Sequence[Tuple[float, float, int, int, Sequence[float], Sequence[float]]],
    peak_rss_mb: float,
    notes: List[str],
) -> Dict[str, float]:
    """The end-to-end metrics, with every time at the reference host speed.

    ``setups`` holds ``(setup_s, scale)`` per set-up and ``units`` holds
    ``(wall_s, scale, client_steps, observations, delays_s, ref_delays_s)``
    per timed unit: times in host seconds, the scale probed alongside
    them, and the hint delays already at the reference speed.  The notes
    get the same metrics in host seconds.
    """

    def metrics(
        setup_s: Sequence[float], timed: Sequence[Tuple[float, int, int, Sequence[float]]]
    ) -> Dict[str, float]:
        delays_ms = [d * 1e3 for _, _, _, delays in timed for d in delays]
        return {
            "setup_s": statistics.median(setup_s),
            "client_steps_per_s": statistics.median(n / wall for wall, n, _, _ in timed),
            "obs_per_s": statistics.median(n / wall for wall, _, n, _ in timed),
            "hint_delay_ms_p50": _percentile(delays_ms, 50),
            "hint_delay_ms_p90": _percentile(delays_ms, 90),
            "peak_rss_mb": peak_rss_mb,
        }

    host = metrics(
        [t for t, _ in setups], [(wall, n, obs, delays) for wall, _, n, obs, delays, _ in units]
    )
    notes.append(
        f"units {len(units)}, hint-delay samples {sum(len(u[4]) for u in units)}, "
        "host-speed scale per unit " + " ".join(f"{u[1]:.3f}" for u in units)
    )
    notes.append(
        "in host seconds: "
        + ", ".join(f"{name} {value:.6g}" for name, value in host.items() if name != "peak_rss_mb")
    )
    return metrics(
        [t * scale for t, scale in setups],
        [
            (wall * scale, n, obs, ref_delays)
            for wall, scale, n, obs, _, ref_delays in units
        ],
    )


#: ``(package, class, attribute, span name)`` of each traced call.
SIM_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim", "EngineStepper", "step", "sim.step"),
    ("repro.sim", "BatchedSensingSession", "sense", "sim.sense"),
    ("repro.sim", "BatchedSensingSession", "classify", "sim.classify"),
    ("repro.stream", "StreamingSensingSession", "sense", "sim.sense"),
    ("repro.stream", "StreamingSensingSession", "classify", "sim.classify"),
)
STORM_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.wlan", "MultiApChannel", "evaluate", "channel.evaluate"),
    ("repro.channel", "ChannelTrace", "measured_csi", "channel.measured_csi"),
    ("repro.phy", "ToFSampler", "sample", "phy.tof_sample"),
    ("repro.controller", "Controller", "run_epoch", "controller.run_epoch"),
    ("repro.controller", "Controller", "observe", "controller.observe"),
)
SERVICE_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.resilience", "ResilientService", "offer", "resilience.offer"),
    ("repro.resilience", "ResilientService", "advance", "resilience.advance"),
    ("repro.resilience", "ResilientService", "_rollover", "resilience.rollover"),
    ("repro.resilience", "CheckpointManager", "save", "resilience.save"),
    # Checkpoint encode/decode: the router state every save and rollover
    # serialises, and every rollover and recovery restores.
    ("repro.stream", "StreamRouter", "state_dict", "resilience.encode"),
    ("repro.stream", "StreamRouter", "load_state_dict", "resilience.decode"),
    ("repro.stream", "StreamRouter", "offer", "stream.offer"),
    ("repro.stream", "StreamRouter", "advance", "stream.advance"),
    ("repro.stream", "StreamRouter", "backlog", "stream.backlog"),
) + tuple(
    ("repro.telemetry", cls, hook, "telemetry." + hook)
    for cls in ("TelemetryRecorder", "ShieldedRecorder")
    for hook in ("count", "gauge", "observe", "event", "phase_time", "channel_eval")
)


def _install(
    tracer: Tracer,
    targets: Sequence[Tuple[str, str, str, str]],
    on_result: Optional[Dict[str, Callable[[Any], None]]] = None,
) -> None:
    """Wrap every target that exists; skip the ones that do not."""
    for package, cls_name, attr, name in targets:
        cls = getattr(importlib.import_module(package), cls_name, None)
        if isinstance(cls, type):
            tracer.wrap(cls, attr, name, on_result=(on_result or {}).get(name))


def _add_sim_metrics(metrics: Dict[str, float], tracer: Tracer, n: int, n_clients: int) -> None:
    steps, _, step_self_s = tracer.stat("sim.step")
    _, sense_s, _ = tracer.stat("sim.sense")
    _, classify_s, _ = tracer.stat("sim.classify")
    metrics.update(
        {
            "sim.sense_s": sense_s / n,
            "sim.classify_s": classify_s / n,
            "sim.classify_us_per_client_step": (
                classify_s * 1e6 / (steps * n_clients) if steps else 0.0
            ),
            "sim.steps": steps / n,
            "sim.step_self_s": step_self_s / n,
        }
    )


def _layer_metrics(
    tracer: Tracer, wall_s: float, n: int, reference_wall_s: float
) -> Dict[str, float]:
    """Every per-layer metric at zero, then the layer self times."""
    metrics = {name: 0.0 for name in PER_LAYER}
    by_layer = tracer.layer_self_s()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer[layer] / n
    metrics["telemetry.share"] = by_layer["telemetry"] / wall_s
    metrics["channel.share"] = by_layer["channel"] / wall_s
    metrics["mobility.share"] = by_layer["mobility"] / wall_s
    attributed = sum(by_layer[layer] for layer in LAYERS)
    metrics["trace.unattributed_share"] = (wall_s - attributed) / wall_s
    metrics["trace.overhead"] = (wall_s / n) / reference_wall_s
    return metrics
