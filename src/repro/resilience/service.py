"""The self-healing service runtime over :class:`repro.stream.StreamRouter`.

:class:`ResilientService` wraps one router so that every *known* failure
mode of a long-running deployment is a non-event:

* **horizon rollover** — the engine works on a finite
  :class:`repro.sim.TimeGrid` segment; when the router raises
  :class:`repro.stream.HorizonExhausted` mid-advance, the service
  checkpoints in memory, shifts the segment start by exactly one horizon,
  pins the router's late-floor at the old segment's end, and restores
  with an empty estimate history — estimates continue
  **bit-identically** with a single long-grid run (pinned by
  ``tests/test_resilience.py``);
* **supervised checkpointing** — a deterministic *sim-time* cadence
  (:class:`repro.resilience.CheckpointManager`) writes
  sha256-integrity-stamped artifacts with keep-last-K retention, and
  :meth:`ResilientService.recover` scans the directory, refuses corrupt
  artifacts loudly, and resumes from the newest valid one —
  kill-at-an-arbitrary-step resume is bit-identical to the uninterrupted
  run on the same remaining input;
* **source fault tolerance** — inputs arrive through
  :class:`repro.resilience.SupervisedSource` (retry / deterministic
  exponential backoff / circuit breaker), and while a source is down its
  clients are served :func:`repro.core.safe_default_hint` degraded hints,
  each counted (``resilience.degraded_hints``).

Everything the runtime does to survive is visible under the registered
``resilience.*`` telemetry names — recovery must never be quieter than
the failure it masks.  The chaos campaign
(``python -m repro.experiments resilience``) drives all three paths at
once and asserts the recovery SLOs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.core.batched import BatchedMobilityClassifier
from repro.core.hints import safe_default_hint
from repro.resilience.config import ResilienceConfig
from repro.resilience.sources import SourceSpec, SupervisedSource
from repro.sim.supervisor import SupervisorConfig
from repro.stream.checkpoint import (
    CheckpointManager,
    checkpoint_state,
    restore_router,
    scan_checkpoints,
)
from repro.stream.observations import Observation
from repro.stream.router import HorizonExhausted, StreamConfig, StreamRouter
from repro.telemetry.recorder import NULL_RECORDER, Recorder, shield

if TYPE_CHECKING:
    from repro.faults.chaos import ServiceKillFault


class _EstimateSink:
    """The router's estimate sink: accumulate per client, then forward.

    It holds no reference back to the service, so service, router and
    sink form no reference cycle and a dropped service is freed at once.
    """

    __slots__ = ("estimates", "forward")

    def __init__(self, forward: Optional[Callable[[str, float, Any], None]]) -> None:
        self.estimates: Dict[str, List[Any]] = {}
        self.forward = forward

    def __call__(self, label: str, time_s: float, estimate: Any) -> None:
        self.estimates.setdefault(label, []).append(estimate)
        if self.forward is not None:
            self.forward(label, time_s, estimate)


class ResilientService:
    """A supervising runtime that keeps one streaming cohort alive.

    Construct fresh with a classifier (exactly like
    :class:`repro.stream.StreamRouter`) or via :meth:`recover` from a
    checkpoint directory.  Feed it through :meth:`offer`/:meth:`advance`
    (the router's contract, rollover-safe) or hand it whole sources with
    :meth:`run`.

    Estimates delivered since *this process* started accumulate in
    :attr:`estimates` (per-client, in delivery order) and are forwarded
    to ``on_estimate``.  A checkpoint carries only the current grid
    segment's estimate log (what :meth:`results` returns); a rollover
    starts the next segment with an empty one, so an artifact's size
    does not grow with uptime, and a recovered process continues the
    stream rather than replaying it.
    """

    def __init__(
        self,
        classifier: Optional[BatchedMobilityClassifier] = None,
        config: Optional[StreamConfig] = None,
        *,
        resilience: ResilienceConfig,
        recorder: Recorder = NULL_RECORDER,
        on_estimate: Optional[Callable[[str, float, Any], None]] = None,
        supervisor: Optional[SupervisorConfig] = None,
        kill: Optional["ServiceKillFault"] = None,
        _router_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.resilience = resilience
        self.recorder = shield(recorder)
        self.kill = kill
        self._sink = _EstimateSink(on_estimate)
        #: Estimates delivered since this process started, per client.
        self.estimates: Dict[str, List[Any]] = self._sink.estimates
        #: Grid segments completed by automatic rollover.
        self.rollovers = 0
        #: Engine steps run across all segments (the service-global step
        #: counter chaos kills are scheduled against).
        self.total_steps = 0
        self._source_cursors: Dict[str, int] = {}
        if _router_state is not None:
            self.router = restore_router(
                _router_state, recorder=self.recorder, on_estimate=self._sink
            )
        else:
            if classifier is None:
                raise ValueError(
                    "a classifier is required to start a fresh service "
                    "(or use ResilientService.recover)"
                )
            self.router = StreamRouter(
                classifier,
                config=config,
                recorder=self.recorder,
                on_estimate=self._sink,
                supervisor=supervisor,
            )
        self.checkpoints = CheckpointManager(
            resilience.checkpoint_dir,
            resilience.checkpoint_every_s,
            keep=resilience.keep_checkpoints,
            recorder=self.recorder,
        )
        self.checkpoints.schedule_from(self.router.clock_s)
        if _router_state is None:
            # Recovery point zero: a fresh service is recoverable from its
            # very first step, not only after the first cadence instant.
            self.checkpoint_now()

    # ------------------------------------------------------------ recovery

    @classmethod
    def recover(
        cls,
        resilience: ResilienceConfig,
        recorder: Recorder = NULL_RECORDER,
        on_estimate: Optional[Callable[[str, float, Any], None]] = None,
        kill: Optional["ServiceKillFault"] = None,
    ) -> "ResilientService":
        """Resume from the newest valid artifact in the checkpoint dir.

        Corrupt/truncated artifacts are refused loudly (counted under
        ``resilience.corrupt_artifacts``) and the scan falls back to the
        next-newest; a directory with nothing trustworthy raises
        :class:`repro.stream.CorruptCheckpoint`.  The recovered service
        resumes bit-identically on the same remaining input stream.
        """
        state, path, rejected = scan_checkpoints(
            resilience.checkpoint_dir, recorder=recorder
        )
        service = cls(
            resilience=resilience,
            recorder=recorder,
            on_estimate=on_estimate,
            kill=kill,
            _router_state=state,
        )
        extra = state.get("service")
        if isinstance(extra, dict):
            cursors = extra.get("cursors", {})
            service._source_cursors = {
                str(name): int(position) for name, position in dict(cursors).items()
            }
            service.rollovers = int(extra.get("rollovers", 0))
            service.total_steps = int(extra.get("total_steps", 0))
        if service.recorder.enabled:
            service.recorder.count("resilience.recoveries")
            service.recorder.event(
                "service_recovered",
                service.router.clock_s,
                step=service.router.stepper.next_index,
                path=path,
                rejected=len(rejected),
            )
        return service

    # ------------------------------------------------------------- queries

    @property
    def clock_s(self) -> float:
        """The service clock (start of the next not-yet-run engine step)."""
        return self.router.clock_s

    @property
    def labels(self) -> List[str]:
        return self.router.labels

    # ------------------------------------------------------------- ingress

    def offer(self, observation: Observation) -> bool:
        """Ingest one observation (the router's :meth:`~StreamRouter.offer`)."""
        return self.router.offer(observation)

    def advance(self, until_s: float) -> None:
        """Run every engine step due by ``until_s``, healing as needed.

        Chunked so that (a) the checkpoint cadence lands exactly on its
        sim-time instants, (b) an exhausted grid segment rolls over
        in-place and stepping continues, and (c) an armed chaos kill
        fires at exactly its scheduled service-global step.

        A call that would do nothing observable returns after a clock
        check: no step is due by ``until_s``, no checkpoint is due at
        the current clock and no armed kill is due.  Rollover is never
        skipped: an exhausted segment always takes the full path.
        """
        router = self.router
        times = router.step_times
        next_index = router.stepper.next_index
        if next_index < len(times):
            next_s = times[next_index]
            if (
                next_s > until_s
                and not self.checkpoints.due(next_s)
                and (self.kill is None or not self.kill.due(self.total_steps))
            ):
                return
        dt_s = router.config.dt_s
        while True:
            self._maybe_checkpoint()
            self._maybe_kill()
            target_s = until_s
            next_due_s = self.checkpoints.next_due_s
            if next_due_s is not None and next_due_s < target_s:
                target_s = next_due_s
            kill = self.kill
            if kill is not None and kill.at_step is not None and kill.n_fired == 0:
                steps_left = kill.at_step - self.total_steps
                if steps_left > 0:
                    kill_target_s = self.router.clock_s + (steps_left - 1) * dt_s
                    if kill_target_s < target_s:
                        target_s = kill_target_s
            before = self.router.stepper.next_index
            try:
                self.router.advance(target_s)
            except HorizonExhausted:
                self.total_steps += self.router.stepper.next_index - before
                self._rollover()
                continue
            self.total_steps += self.router.stepper.next_index - before
            if target_s >= until_s:
                self._maybe_checkpoint()
                self._maybe_kill()
                return

    def run(
        self, sources: Sequence[SourceSpec], until_s: float
    ) -> Dict[str, List[Any]]:
        """Drive the service from ``sources`` until ``until_s``.

        A k-way merge on observation time (ties broken by source order)
        feeds the router; each pop updates that source's checkpointed
        resume cursor *before* the observation is offered, so a recovered
        process never re-feeds what the dead one already queued.  Returns
        :attr:`estimates` (what this process delivered).
        """
        supervised = [
            SupervisedSource(
                spec,
                policy=self.resilience.source_policy,
                recorder=self.recorder,
                on_outage=self._on_source_outage,
                origin_s=self.router.config.start_s,
                resume_at=self._source_cursors.get(spec.name, 0),
            )
            for spec in sources
        ]
        dt_s = self.router.config.dt_s
        while True:
            choice: Optional[SupervisedSource] = None
            choice_time_s = 0.0
            for source in supervised:
                observation = source.peek()
                if observation is None:
                    continue
                if choice is None or observation.time_s < choice_time_s:
                    choice = source
                    choice_time_s = observation.time_s
            if choice is None:
                break
            observation = choice.pop()
            self._source_cursors[choice.spec.name] = choice.consumed
            self.router.offer(observation)
            self.advance(observation.time_s - dt_s)
        self.advance(until_s)
        return self.estimates

    def results(self) -> Dict[str, Any]:
        """Per-client results of the *current* grid segment (the router's
        :meth:`~StreamRouter.results`); cross-segment history lives in
        :attr:`estimates`."""
        return self.router.results()

    # ------------------------------------------------------------ internals

    def _service_extra(self) -> Dict[str, Any]:
        """Supervisor bookkeeping that rides along in every artifact."""
        return {
            "cursors": dict(self._source_cursors),
            "rollovers": self.rollovers,
            "total_steps": self.total_steps,
        }

    def _maybe_checkpoint(self) -> None:
        if self.checkpoints.due(self.router.clock_s):
            self.checkpoints.save(self.router, extra=self._service_extra())

    def checkpoint_now(self) -> str:
        """Write one artifact immediately (cadence advances past now)."""
        return self.checkpoints.save(self.router, extra=self._service_extra())

    def _maybe_kill(self) -> None:
        """Fire an armed chaos kill — deliberately *without* checkpointing
        first, so the test models a real crash, not a graceful stop."""
        if self.kill is not None and self.kill.due(self.total_steps):
            self.kill.fire()

    def _rollover(self) -> None:
        """Roll the router into the next grid segment, bit-identically.

        Checkpoint the exhausted router in memory, shift the segment
        start by exactly one horizon (``horizon_steps * dt_s``, so the
        new grid's sample instants coincide with a single long grid's),
        reset the step position, and pin the late-floor at the old
        segment's end so pre-rollover timestamps are still refused as
        late.  Restore binds the same recorder and estimate sink.  The
        new segment starts with an empty estimate history: what the old
        one delivered lives on in :attr:`estimates`.
        """
        router = self.router
        old_end_s = float(router.engine.grid.end_s)
        state = checkpoint_state(router)
        stream_config = dict(state["stream_config"])
        horizon_steps = int(stream_config["horizon_steps"])
        dt_s = float(stream_config["dt_s"])
        stream_config["start_s"] = (
            float(stream_config["start_s"]) + horizon_steps * dt_s
        )
        state["stream_config"] = stream_config
        router_state = dict(state["router"])
        router_state["next_index"] = 0
        router_state["late_floor_s"] = old_end_s
        state["router"] = router_state
        self.router = restore_router(
            state, recorder=self.recorder, on_estimate=self._sink
        )
        self.router.session.clear_history()
        self.rollovers += 1
        if self.recorder.enabled:
            self.recorder.count("resilience.rollovers")
            self.recorder.event(
                "service_rollover",
                self.router.clock_s,
                segment=self.rollovers,
                start_s=self.router.config.start_s,
            )

    def _on_source_outage(
        self, spec: SourceSpec, time_s: float, terminal: bool
    ) -> None:
        """Degraded mode: a down source's clients get safe-default hints."""
        live = self.recorder.enabled
        for label in spec.clients:
            if live:
                self.recorder.count("resilience.degraded_hints", client=label)
            self._sink(label, time_s, safe_default_hint(time_s))
