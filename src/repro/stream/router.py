"""The streaming ingestion router: feed observations, then step the world.

The batch engine couples a run to its inputs — every session owns its
whole input stream before ``run()`` starts.  A long-running service
cannot: observations arrive interleaved across thousands of clients,
queues back up, clients go idle, and the process restarts.  The
:class:`StreamRouter` separates the two halves:

* :meth:`StreamRouter.offer` ingests one timestamped
  :class:`repro.stream.Observation` into its client's bounded
  :class:`repro.stream.queues.SessionQueue` (backpressure policies below);
* :meth:`StreamRouter.advance` steps the shared
  :class:`repro.sim.SimulationEngine` (via the incremental
  :class:`repro.sim.EngineStepper`) exactly as far as the service clock
  allows, draining every queue into the cohort's
  :class:`BatchedSensingSession` along the way.

Because the :class:`StreamingSensingSession` feeds the *same* batched
classifier through the *same* per-step push calls the batch session uses
— all due ToF in ``sense``, at most one due CSI per client at the step
instant in ``classify`` — a trace streamed through the router produces
**bit-identical** estimates to handing the equivalent per-step arrays to
:class:`repro.sim.BatchedSensingSession` up front (pinned by
``tests/test_stream.py``).

Backpressure policies (``config.backpressure``), all counted in
telemetry:

* ``"block"`` — a full queue rejects the offer (``stream.blocked``); the
  caller must :meth:`advance` before retrying — ingestion pressure turns
  into explicit flow control, never silent loss;
* ``"drop_oldest"`` — the oldest queued observation is discarded
  (``stream.dropped``) and the new one accepted — bounded staleness,
  bounded memory;
* ``"shed_session"`` — the overflowing *session* is shed wholesale
  (``stream.shed_sessions``): its queue clears, its classifier state
  resets with a safe-default hint pushed downstream, and further offers
  for it are refused (``stream.shed``) — overload isolation at session
  granularity.

Idle eviction (``config.idle_timeout_s``): a session with no accepted
observation for longer than the timeout has its classifier state evicted
(``stream.evicted`` / ``stream_evict``) and a mobility-oblivious
safe-default hint pushed to the live consumer, exactly like a
quarantined member's degradation path; a fresh observation revives it
(``stream.revived`` / ``stream_revive``) with a cold classifier — the
client re-warms like a newly associated station.

Checkpoint/resume lives in :mod:`repro.stream.checkpoint`: the router
serializes classifier/window/association state to a versioned artifact,
and a restarted service resumes **bit-identically** on the same input
stream (also pinned by tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.batched import BatchedMobilityClassifier
from repro.core.hints import safe_default_hint
from repro.sim.engine import EngineStepper, SimulationEngine, StepClock, TimeGrid
from repro.sim.sessions import BatchedSensingSession
from repro.sim.supervisor import SupervisorConfig
from repro.stream.observations import Observation
from repro.stream.queues import BacklogCount, SessionQueue, load_queues_state, queues_state
from repro.telemetry.recorder import NULL_RECORDER, Recorder, shield

#: What a full session queue does to the offered observation.
BACKPRESSURE_POLICIES: Tuple[str, ...] = ("block", "drop_oldest", "shed_session")


class HorizonExhausted(RuntimeError):
    """The router's finite :class:`repro.sim.TimeGrid` segment ran out.

    Raised by :meth:`StreamRouter.advance` once every step of the
    configured horizon has run and the caller asks for time beyond it.
    The remedy is a checkpoint/restore into the next grid segment
    (:mod:`repro.stream.checkpoint`) — which
    :class:`repro.resilience.ResilientService` automates — so a typed
    signal lets callers distinguish "roll the service over" from "router
    is closed" (a plain :class:`RuntimeError`).

    Attributes:
        end_s: last sample instant of the exhausted grid segment.
        n_steps: length of the exhausted segment, in engine steps.
    """

    def __init__(self, end_s: float, n_steps: int) -> None:
        self.end_s = end_s
        self.n_steps = n_steps
        # Keep the historical RuntimeError message for back-compat with
        # callers that match on the text.
        super().__init__(
            f"stream horizon exhausted at {end_s:.3f} s "
            f"({n_steps} steps); checkpoint and restore to roll over "
            "(see repro.stream.checkpoint)"
        )


@dataclass(frozen=True)
class StreamConfig:
    """Service-level knobs of a :class:`StreamRouter`.

    Attributes:
        dt_s: engine step width — the classification cadence (the paper's
            CSI sampling period, 500 ms, by default).
        start_s: service clock origin (e.g. the trace's first timestamp).
        horizon_steps: grid length of one service *segment*.  The engine
            works on a finite :class:`repro.sim.TimeGrid`; a service that
            outlives the horizon checkpoints and restores to roll over
            (:mod:`repro.stream.checkpoint`), which is the same machinery
            as a process restart.
        queue_capacity: per-session bound on queued observations.
        backpressure: one of :data:`BACKPRESSURE_POLICIES`.
        idle_timeout_s: evict a session's classifier state after this much
            service time without an accepted observation (``None``
            disables eviction).
    """

    dt_s: float = 0.5
    start_s: float = 0.0
    horizon_steps: int = 100_000
    queue_capacity: int = 256
    backpressure: str = "block"
    idle_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {self.dt_s}")
        if self.horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.idle_timeout_s is not None and self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive (or None to disable)")


class StreamingSensingSession(BatchedSensingSession):
    """A cohort sensing session whose inputs arrive through queues.

    Same classifier, same per-step push calls, same supervision hooks as
    the batch :class:`repro.sim.BatchedSensingSession` — only the input
    source differs: ``sense`` drains each member's due ToF readings from
    its queue, ``classify`` consumes at most one due CSI snapshot per
    member and pushes it at the step instant.  A masked (suspended or
    quarantined) member's queue keeps buffering, so a resumed member
    drains its backlog exactly like a batch-mode member re-reading its
    arrays — the mid-backlog resume invariant.
    """

    def __init__(
        self,
        classifier: BatchedMobilityClassifier,
        queues: List[SessionQueue],
        client: str = "stream",
        on_estimate: Optional[Callable[[str, float, Any], None]] = None,
        member_faults: Optional[Dict[str, Any]] = None,
    ) -> None:
        n = len(classifier.client_labels)
        if len(queues) != n:
            raise ValueError(f"{len(queues)} queues cannot serve {n} cohort members")
        super().__init__(
            classifier,
            csi_by_client=[[] for _ in range(n)],
            client=client,
            on_estimate=on_estimate,
            member_faults=member_faults,
        )
        self._queues = queues
        #: Router-owned flags: evicted or shed members skip the
        #: per-step ``sensing.csi_missing`` accounting (they are parked,
        #: not degraded).
        self.stream_inactive = np.zeros(n, dtype=bool)

    def start(self, grid: TimeGrid) -> None:
        """Streaming inputs arrive after start; nothing to precompute."""
        for fault in self._member_faults.values():
            fault.arm(len(grid))

    def sense(self, clock: StepClock) -> None:
        errors = self._due_failures("sense", clock)
        mask = self._participating()
        chunks: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(self._labels)
        # Only lanes holding ToF can have any due.
        for i, queue in enumerate(self._queues):
            if queue.tof and mask[i]:
                chunks[i] = queue.pop_tof_due(clock.start_s)
        self.classifier.push_tof(chunks, mask=mask)
        self._raise_failures(errors)

    def classify(self, clock: StepClock) -> None:
        errors = self._due_failures("classify", clock)
        mask = self._participating()
        now_s = clock.start_s
        recorder = self.recorder
        live = recorder.enabled
        queues = self._queues
        samples: List[Optional[Any]] = [None] * len(self._labels)
        n_due = 0
        for i in np.flatnonzero(mask).tolist():
            queue = queues[i]
            csi = queue.csi
            if csi and csi[0][0] <= now_s:
                samples[i] = queue.pop_csi_due(now_s)
                n_due += 1
            elif live and not self.stream_inactive[i]:
                recorder.count("sensing.csi_missing", client=self._labels[i])
        if n_due:
            start = self._history.size
            # Only participating members hold a sample, so the mask is
            # already applied.
            results = self.classifier.push_csi(now_s, samples)
            self._deliver(now_s, results, start)
        self._raise_failures(errors)

    # ----------------------------------------------------- eviction support

    def park_member(self, i: int, time_s: float) -> None:
        """Evict/shed member ``i``: cold classifier, safe hint downstream."""
        self.stream_inactive[i] = True
        self.classifier.reset(np.array([i]))
        if self._on_estimate is not None:
            self._on_estimate(self._labels[i], time_s, safe_default_hint(time_s))

    def unpark_member(self, i: int) -> None:
        self.stream_inactive[i] = False

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state["stream_inactive"] = self.stream_inactive.copy()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self.stream_inactive[...] = state["stream_inactive"]


class StreamRouter:
    """The ingestion front end over one cohort engine (see module docs)."""

    def __init__(
        self,
        classifier: BatchedMobilityClassifier,
        config: Optional[StreamConfig] = None,
        recorder: Recorder = NULL_RECORDER,
        on_estimate: Optional[Callable[[str, float, Any], None]] = None,
        supervisor: Optional[SupervisorConfig] = None,
        member_faults: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self.classifier = classifier
        self.labels: List[str] = [
            label if label is not None else f"client-{i}"
            for i, label in enumerate(classifier.client_labels)
        ]
        self._index_of = {label: i for i, label in enumerate(self.labels)}
        n = len(self.labels)
        self._backlog = BacklogCount()
        self.queues: List[SessionQueue] = [
            SessionQueue(self.config.queue_capacity, self._backlog) for _ in range(n)
        ]
        self.recorder = shield(recorder)
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        self.last_activity = np.full(n, self.config.start_s, dtype=float)
        self.evicted = np.zeros(n, dtype=bool)
        self.shed = np.zeros(n, dtype=bool)
        #: Rejection floor for a router whose grid segment is a rollover
        #: continuation: steps at or before this instant ran in a
        #: *previous* segment, so observations there are late even while
        #: ``next_index == 0`` (set by the rollover machinery in
        #: :mod:`repro.resilience`; ``None`` for a fresh service).
        self.late_floor_s: Optional[float] = None
        grid = TimeGrid.regular(
            self.config.start_s, self.config.dt_s, self.config.horizon_steps
        )
        #: The segment's step instants, ``grid.times`` as Python floats:
        #: every per-offer late check and per-call clock check reads
        #: this list rather than a numpy element.
        self.step_times: List[float] = grid.times.tolist()
        self.session = StreamingSensingSession(
            classifier, self.queues, on_estimate=on_estimate, member_faults=member_faults
        )
        self.engine = SimulationEngine(
            grid, recorder=self.recorder, supervisor=self.supervisor_config
        )
        self.engine.add(self.session)
        self.stepper: EngineStepper = self.engine.begin()
        self._closed = False

    # ------------------------------------------------------------- queries

    @property
    def n_sessions(self) -> int:
        return len(self.labels)

    @property
    def n_active_sessions(self) -> int:
        """Sessions neither evicted nor shed (supervision masks aside)."""
        return int(self.n_sessions - np.count_nonzero(self.evicted | self.shed))

    @property
    def backlog(self) -> int:
        """Observations queued across all sessions (a running count)."""
        return self._backlog.value

    @property
    def clock_s(self) -> float:
        """The service clock: start of the next not-yet-run engine step."""
        times = self.step_times
        next_index = self.stepper.next_index
        if next_index >= len(times):
            grid = self.engine.grid
            return grid.end_s + grid.dt_s
        return times[next_index]

    # ------------------------------------------------------------- ingress

    def offer(self, observation: Observation) -> bool:
        """Ingest one observation; ``True`` iff it was queued.

        Rejections are never silent: non-finite timestamps, unknown
        clients, shed sessions, late arrivals (timestamps at or behind the
        already-stepped clock), and block-policy refusals each count under
        their ``stream.*`` name.
        """
        recorder = self.recorder
        live = recorder.enabled
        t0 = perf_counter() if live else 0.0
        accepted = self._offer(observation, recorder, live)
        if live:
            recorder.observe("stream.offer_s", perf_counter() - t0)
        return accepted

    def _offer(self, observation: Observation, recorder: Recorder, live: bool) -> bool:
        time_s = observation.time_s
        if not math.isfinite(time_s):
            # No step is ever due for a NaN or infinite timestamp: queued,
            # it would block its lane, and its session, for good.
            if live:
                recorder.count("stream.invalid_time")
            return False
        i = self._index_of.get(observation.client)
        if i is None:
            if live:
                recorder.count("stream.unknown_client")
            return False
        label = self.labels[i]
        if self.shed[i]:
            if live:
                recorder.count("stream.shed", client=label)
            return False
        next_index = self.stepper.next_index
        stepped_past_s = (
            self.step_times[next_index - 1] if next_index else self.late_floor_s
        )
        if stepped_past_s is not None and time_s <= stepped_past_s:
            # The step that would have consumed this observation already
            # ran (possibly in a previous grid segment, pre-rollover);
            # feeding it now would hand the classifier a stale clock.
            if live:
                recorder.count("stream.late", client=label)
            return False
        queue = self.queues[i]
        if len(queue.tof) + len(queue.csi) >= queue.capacity:
            policy = self.config.backpressure
            if policy == "block":
                if live:
                    recorder.count("stream.blocked", client=label)
                return False
            if policy == "drop_oldest":
                queue.drop_oldest()
                if live:
                    recorder.count("stream.dropped", client=label)
            else:  # shed_session
                self._shed_session(i, time_s)
                if live:
                    recorder.count("stream.shed", client=label)
                return False
        if self.evicted[i]:
            self.evicted[i] = False
            self.session.unpark_member(i)
            if live:
                recorder.count("stream.revived", client=label)
                recorder.event("stream_revive", time_s, client=label)
        if observation.kind == "tof":
            queue.push_tof(time_s, float(observation.payload))
        else:
            queue.push_csi(time_s, observation.payload)
        if time_s > self.last_activity[i]:
            self.last_activity[i] = time_s
        if live:
            recorder.count("stream.accepted", client=label)
        return True

    def _shed_session(self, i: int, time_s: float) -> None:
        self.shed[i] = True
        self.evicted[i] = False
        self.queues[i].clear()
        self.session.park_member(i, time_s)
        if self.recorder.enabled:
            self.recorder.count("stream.shed_sessions")
            self.recorder.event("stream_shed", time_s, client=self.labels[i])

    # ------------------------------------------------------------ stepping

    def advance(self, until_s: float) -> int:
        """Run every engine step with a start at or before ``until_s``.

        Returns the number of steps run.  A call with no step due (the
        next grid instant is past ``until_s``) returns 0 after that one
        clock check: it evicts nothing and records no telemetry.  The
        ``stream.step_s`` histogram and the ``stream.backlog`` and
        ``stream.sessions_active`` gauges are recorded once per call that
        ran at least one step.  Raises once the configured horizon is
        exhausted — checkpoint and restore to roll the service into its
        next segment (:mod:`repro.stream.checkpoint`).
        """
        if self._closed:
            raise RuntimeError("router is closed")
        stepper = self.stepper
        times = self.step_times
        n_times = len(times)
        next_index = stepper.next_index
        if next_index < n_times and times[next_index] > until_s:
            return 0
        recorder = self.recorder
        live = recorder.enabled
        t0 = perf_counter() if live else 0.0
        n_steps = 0
        while next_index < n_times and times[next_index] <= until_s:
            self._evict_idle(times[next_index])
            stepper.step()
            n_steps += 1
            next_index = stepper.next_index
        if next_index >= n_times and until_s > times[-1]:
            raise HorizonExhausted(times[-1], n_times)
        if live and n_steps:
            recorder.observe("stream.step_s", perf_counter() - t0)
            recorder.gauge("stream.backlog", float(self.backlog))
            recorder.gauge("stream.sessions_active", float(self.n_active_sessions))
        return n_steps

    def _evict_idle(self, step_start_s: float) -> None:
        timeout = self.config.idle_timeout_s
        if timeout is None:
            return
        stale = (
            (step_start_s - self.last_activity > timeout)
            & ~self.evicted
            & ~self.shed
        )
        for i in np.flatnonzero(stale):
            if len(self.queues[i]):
                continue  # still has buffered work; not idle
            self.evicted[i] = True
            self.session.park_member(int(i), step_start_s)
            if self.recorder.enabled:
                self.recorder.count("stream.evicted", client=self.labels[int(i)])
                self.recorder.event(
                    "stream_evict", step_start_s, client=self.labels[int(i)]
                )

    # ------------------------------------------------------------- results

    def results(self) -> Dict[str, Any]:
        """Per-client results so far (estimate streams / FailureRecords)."""
        return self.session.finish()

    def close(self) -> Dict[str, Any]:
        """Finalize the underlying engine run and return its results."""
        if self._closed:
            raise RuntimeError("router is closed")
        self._closed = True
        self.stepper.skip_to(len(self.engine.grid))
        return self.stepper.finalize()

    # ---------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, Any]:
        """The router's full resumable state (see
        :mod:`repro.stream.checkpoint` for the versioned artifact)."""
        return {
            "labels": list(self.labels),
            "next_index": self.stepper.next_index,
            "late_floor_s": self.late_floor_s,
            "queues": queues_state(self.queues),
            "last_activity": self.last_activity.copy(),
            "evicted": self.evicted.copy(),
            "shed": self.shed.copy(),
            "session": self.session.state_dict(),
            "supervisor": self.stepper.supervisor.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if list(state["labels"]) != self.labels:
            raise ValueError("checkpoint cohort labels disagree with this router")
        # Absent means a fresh service (no rollover floor).
        floor = state.get("late_floor_s")
        self.late_floor_s = None if floor is None else float(floor)
        load_queues_state(self.queues, state["queues"])
        self.last_activity[...] = state["last_activity"]
        self.evicted[...] = state["evicted"]
        self.shed[...] = state["shed"]
        self.session.load_state_dict(state["session"])
        self.stepper.supervisor.load_state_dict(state["supervisor"])
        self.stepper.skip_to(int(state["next_index"]))
        if self.recorder.enabled:
            self.recorder.event(
                "stream_resume", self.clock_s, step=self.stepper.next_index
            )
