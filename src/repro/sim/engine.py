"""The unified simulation engine: one sense→classify→adapt→transmit loop.

Every protocol study in this repository has the same shape: an outer
*decision* loop that walks a uniform time grid (channel sampling cadence)
and, per step, feeds observables to a classifier, lets a control policy
react, and transmits frames inside the step window.  Historically each of
``wlan/stack.py``, ``wlan/scheduler.py`` and ``roaming/simulator.py``
hand-rolled that loop; this module owns it once, and a run is always
sessions added to an engine.

* :class:`TimeGrid` — the shared uniform grid plus alignment helpers
  (e.g. mapping ``csi_sampling_period_s`` onto a grid stride);
* :class:`Session` — one client's pluggable behaviour, split into the four
  phases ``sense``, ``classify``, ``adapt``, ``transmit``;
* :class:`SimulationEngine` — drives every registered session through the
  phases, phase-major, step by step, and collects per-client results.

Sessions keep whatever state they need; the engine guarantees ordering,
wraps failures in :class:`SessionError` naming the offending client, and
(via :meth:`SimulationEngine.for_clients`) evaluates multi-client channels
through the batched :class:`repro.channel.model.MultiLinkChannel` path
instead of N scalar per-link loops.

:class:`EngineStepper` walks the grid in one loop for every failure
policy: each phase call that raises goes to the run's supervisor, whose
:class:`repro.sim.SupervisorConfig` decides what the failure does — abort
the run (``fail_fast``, the default), quarantine the session
(``isolate``) or suspend it for a bounded retry-with-backoff (``retry``).
See :mod:`repro.sim.supervisor` and ``docs/architecture.md``
("Supervision & failure domains").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.supervisor import FailureRecord, Supervisor, SupervisorConfig
from repro.telemetry.recorder import NULL_RECORDER, Recorder, shield

#: Phase order of one engine step.  ``sense`` ingests observables (CSI,
#: ToF, RSSI), ``classify`` turns them into mobility estimates, ``adapt``
#: lets control policies react (roaming, rate, aggregation, feedback), and
#: ``transmit`` spends the step's airtime.
PHASES: Tuple[str, ...] = ("sense", "classify", "adapt", "transmit")


@dataclass(frozen=True)
class StepClock:
    """The engine's view of one step: the window ``[start_s, end_s)``."""

    index: int
    start_s: float
    end_s: float
    dt_s: float


class TimeGrid:
    """A uniform, increasing time grid shared by every session of a run.

    ``fallback_dt_s`` is only consulted when the grid has a single sample
    (a degenerate run still needs a step width for its one window).
    ``dt_s`` optionally names the *exact* nominal step — when the caller
    knows it (:meth:`regular` does), that beats inferring it from the
    first diff, whose float64 representation error grows with the
    anchor's magnitude.
    """

    def __init__(
        self,
        times: np.ndarray,
        fallback_dt_s: float = 0.1,
        dt_s: Optional[float] = None,
    ) -> None:
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("grid needs a one-dimensional, non-empty time array")
        if len(times) > 1:
            steps = np.diff(times)
            dt = float(steps[0]) if dt_s is None else float(dt_s)
            if dt <= 0:
                raise ValueError("grid times must be increasing")
            # Uniformity tolerance must scale with the grid's magnitude: a
            # float64 carries ~eps * |t| of representation error per sample,
            # so epoch-anchored grids (CSI-replay timestamps, long streaming
            # runs) legitimately show step jitter far above any absolute
            # threshold.  The 1e-9 floor preserves the historical acceptance
            # set for small grids.
            scale = max(abs(float(times[0])), abs(float(times[-1])), abs(dt))
            tolerance = max(1e-9, 32.0 * float(np.finfo(np.float64).eps) * scale)
            if np.any(np.abs(steps - dt) > tolerance):
                raise ValueError("grid times must be uniformly spaced")
        else:
            dt = float(fallback_dt_s) if dt_s is None else float(dt_s)
        self.times = times
        self.dt_s = dt

    @classmethod
    def regular(cls, start_s: float, dt_s: float, n_steps: int) -> "TimeGrid":
        """A grid of ``n_steps`` samples at exactly ``start_s + i * dt_s``.

        Built arithmetically (index times step, not accumulation), so long
        service grids — the streaming router's horizon — carry no drift
        beyond float64 representation error.
        """
        if dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        return cls(
            start_s + np.arange(n_steps, dtype=float) * float(dt_s),
            dt_s=float(dt_s),
        )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def start_s(self) -> float:
        return float(self.times[0])

    @property
    def end_s(self) -> float:
        """End of the *sampled* span (the last sample instant)."""
        return float(self.times[-1])

    def clock(self, index: int) -> StepClock:
        start = float(self.times[index])
        return StepClock(index=index, start_s=start, end_s=start + self.dt_s, dt_s=self.dt_s)

    def index_at(self, time_s: float) -> int:
        """Index of the grid sample at or before ``time_s`` (clamped)."""
        index = int(np.searchsorted(self.times, time_s, side="right") - 1)
        return min(max(index, 0), len(self.times) - 1)

    def stride_for(self, period_s: float, strict: bool = True, name: str = "period") -> int:
        """Grid steps per ``period_s`` (e.g. ``csi_sampling_period_s``).

        With ``strict=True`` a period that is not an integer multiple of
        the grid step raises, so misconfigured cadences fail loudly instead
        of silently drifting; ``strict=False`` keeps the historical
        round-to-nearest behaviour of the hand-rolled loops.
        """
        if period_s <= 0:
            raise ValueError(f"{name} must be positive, got {period_s}")
        ratio = period_s / self.dt_s
        if ratio < 1.0 - 1e-9:
            # A cadence faster than the grid cannot be honoured — there is
            # at most one sample per step.  Historically this clamped to
            # stride 1 silently; now it fails loudly (or warns).
            if strict:
                raise ValueError(
                    f"{name} ({period_s} s) is faster than the grid step "
                    f"({self.dt_s} s); refine the grid or sample at its cadence"
                )
            warnings.warn(
                f"{name} ({period_s} s) is faster than the grid step "
                f"({self.dt_s} s); clamping to one sample per step",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1
        stride = int(round(ratio))
        if strict and abs(ratio - stride) > 1e-6 * max(ratio, 1.0):
            raise ValueError(
                f"{name} ({period_s} s) is not aligned with the grid step "
                f"({self.dt_s} s): {ratio:.6f} steps per period"
            )
        return max(1, stride)


class Session:
    """One client's behaviour inside the engine loop.

    Subclasses override the phases they need; unused phases default to
    no-ops so a transmit-only session stays three lines.  ``client`` names
    the session in results and error messages.

    A session may also simulate a whole *cohort* of clients in one set of
    batched phase calls (see :class:`repro.sim.BatchedSensingSession`):
    it then reports every member label via :attr:`clients`, sets
    :attr:`is_cohort` so ``run()`` merges its per-member ``finish()``
    mapping into the results, and receives the per-member supervision
    hooks (:meth:`on_quarantine`, :meth:`on_suspend`, :meth:`on_resume`)
    so isolate/retry/quarantine still operate per client — a masked
    member is frozen out of the batch, not removed from it.
    """

    client: str = "client"

    #: Whether ``finish()`` returns a ``{member: result}`` mapping that the
    #: engine merges into the run results (instead of one result under
    #: :attr:`client`).
    is_cohort: bool = False

    #: Telemetry sink; the shared no-op recorder unless bound to a live one.
    recorder: Recorder = NULL_RECORDER

    @property
    def clients(self) -> Tuple[str, ...]:
        """Every client label this session simulates (cohorts override)."""
        return (self.client,)

    @property
    def n_active_clients(self) -> int:
        """Members currently participating in the session's phase calls.

        Cohorts exclude quarantined/suspended members; the engine sums
        this across sessions to attribute phase wall time per client.
        """
        return 1

    def bind_recorder(self, recorder: Recorder) -> None:
        """Attach a telemetry recorder (called by the engine at ``add``).

        Subclasses that own instrumented components (classifiers, nested
        simulations) override this to propagate the recorder into them.
        """
        self.recorder = recorder

    def emit(self, kind: str, time_s: float, **fields: Any) -> None:
        """Emit a trace event labelled with this session's client name."""
        self.recorder.event(kind, time_s, client=self.client, **fields)

    def start(self, grid: TimeGrid) -> None:
        """Called once before the first step."""

    def on_suspend(self, client: str, time_s: float, resume_s: float) -> None:
        """Called when a supervisor suspends cohort member ``client``.

        Scalar sessions never see this (the engine simply skips their
        phase calls while suspended); cohorts mask the member out of
        their batched phases until :meth:`on_resume`.  Guarded like
        :meth:`on_quarantine`: raising here cannot abort the run.
        """

    def on_resume(self, client: str, time_s: float) -> None:
        """Called when a suspended cohort member's backoff expires."""

    def sense(self, clock: StepClock) -> None:
        """Ingest observables (CSI, ToF, RSSI) up to ``clock.start_s``."""

    def classify(self, clock: StepClock) -> None:
        """Turn accumulated observables into mobility estimates."""

    def adapt(self, clock: StepClock) -> None:
        """Let control policies react (roaming, rate, aggregation, ...)."""

    def transmit(self, clock: StepClock) -> None:
        """Spend the step window's airtime (the inner frame loop)."""

    def finish(self) -> Any:
        """Called once after the last step; the session's run result."""
        return None

    def on_quarantine(self, time_s: float, record: "FailureRecord") -> None:
        """Called once if a supervisor quarantines this session.

        Subclasses whose output feeds other components override this to
        hand those consumers a safe, mobility-oblivious default instead of
        stale state (see :class:`repro.sim.BatchedSensingSession`).  The
        hook is called from a guarded context: raising here cannot abort
        the run.
        """

    # ----------------------------------------------------------- checkpointing

    def state_dict(self) -> Dict[str, Any]:
        """Serializable snapshot of this session's mutable state.

        Sessions that participate in checkpoint/resume (see
        :mod:`repro.stream`) override this pair; the contract is that
        ``load_state_dict(state_dict())`` into a freshly-constructed
        session restores it *bit-identically* — subsequent phase calls
        produce exactly the output of the uninterrupted session.  The
        returned mapping must contain only plain Python values and numpy
        arrays (no live object references).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoint/resume"
        )

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoint/resume"
        )


class SessionError(RuntimeError):
    """A session failed mid-run; names the client, phase, and step time."""

    def __init__(self, client: str, phase: str, time_s: float, cause: BaseException) -> None:
        super().__init__(
            f"session {client!r} failed in phase {phase!r} at t={time_s:.3f}s: "
            f"{cause.__class__.__name__}: {cause}"
        )
        self.client = client
        self.phase = phase
        self.time_s = time_s


class SimulationEngine:
    """Drives registered sessions through the phase loop on one grid.

    Per step the engine is *phase-major*: every session senses, then every
    session classifies, and so on — so multi-client phases (batched channel
    evaluation, schedulers arbitrating between clients) always see their
    peers' state from the same phase of the same step.
    """

    phases: Tuple[str, ...] = PHASES

    def __init__(
        self,
        grid: "TimeGrid | np.ndarray",
        recorder: Recorder = NULL_RECORDER,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        self.grid = grid if isinstance(grid, TimeGrid) else TimeGrid(grid)
        self.recorder = recorder
        self.supervisor_config = supervisor if supervisor is not None else SupervisorConfig()
        self._supervisor: Optional[Supervisor] = None
        self._sessions: List[Session] = []
        self._ran = False

    @property
    def sessions(self) -> Sequence[Session]:
        return tuple(self._sessions)

    @property
    def failures(self) -> Dict[str, FailureRecord]:
        """Clients quarantined by the last run (empty before a run and
        always empty under ``fail_fast``, which aborts instead)."""
        return dict(self._supervisor.quarantined) if self._supervisor is not None else {}

    def add(self, session: Session) -> Session:
        new_labels = {session.client, *session.clients}
        for existing in self._sessions:
            taken = new_labels & {existing.client, *existing.clients}
            if taken:
                raise ValueError(f"duplicate session name {sorted(taken)[0]!r}")
        self._sessions.append(session)
        return session

    @staticmethod
    def _session_error(
        session: Session, phase: str, time_s: float, exc: BaseException
    ) -> SessionError:
        """Wrap ``exc`` as a :class:`SessionError` naming *this* session.

        A :class:`SessionError` escaping a nested engine keeps its inner
        client name only when it already names this session (or one of a
        cohort session's members — the failure domain the supervisor must
        track is then that single member, not the whole cohort); otherwise
        the outer session is the failure domain.
        """
        if isinstance(exc, SessionError) and (
            exc.client == session.client or exc.client in session.clients
        ):
            return exc
        error = SessionError(session.client, phase, time_s, exc)
        # Chain explicitly: the error is built (not raised) here, so the
        # supervisor can still reach the root cause via ``__cause__``.
        error.__cause__ = exc
        return error

    def begin(self) -> "EngineStepper":
        """Start a run without driving it: returns the incremental driver.

        :meth:`run` is ``begin()`` + step-to-exhaustion + ``finalize()``;
        callers that interleave the grid walk with outside work — the
        streaming ingestion router (:mod:`repro.stream`), checkpoint
        resume — hold the :class:`EngineStepper` and call
        :meth:`EngineStepper.step` themselves.  Session ``start`` hooks
        run here (supervised start failures are absorbed per policy).
        """
        if not self._sessions:
            raise ValueError("no sessions registered; add() at least one")
        if self._ran:
            # Sessions are stateful and single-use: a silent second pass
            # would continue from the first run's state.
            raise RuntimeError("engine already ran; build a fresh engine and sessions")
        self._ran = True
        # The shield guarantees a raising recorder can only lose telemetry,
        # never abort the run: observability must only observe.
        recorder = shield(self.recorder)
        live = recorder.enabled
        if live:
            for session in self._sessions:
                if not session.recorder.enabled:
                    session.bind_recorder(recorder)
            recorder.event(
                "run_start",
                self.grid.start_s,
                n_steps=len(self.grid),
                n_sessions=len(self._sessions),
                dt_s=self.grid.dt_s,
            )
        supervisor = Supervisor(self.supervisor_config, recorder)
        self._supervisor = supervisor
        stepper = EngineStepper(self, recorder, live, supervisor)
        stepper._start_sessions()
        return stepper

    def run(self) -> Dict[str, Any]:
        """Run every session over the whole grid; ``{client: finish()}``.

        Under the default ``fail_fast`` supervisor policy any session
        failure propagates as :class:`SessionError` (after emitting a
        terminal ``run_abort`` trace event).  Under ``isolate``/``retry``
        the run always completes: quarantined clients map to their
        :class:`repro.sim.FailureRecord` in the returned dict, and every
        surviving client's result is bit-identical to a fault-free run.
        """
        stepper = self.begin()
        while not stepper.done:
            stepper.step()
        return stepper.finalize()

    @staticmethod
    def _collect_result(results: Dict[str, Any], session: Session, value: Any) -> None:
        """File one session's ``finish()`` value under its client label(s).

        Cohort sessions return a ``{member: result}`` mapping which merges
        flat into the run results, so batched and per-session runs produce
        the same result shape.
        """
        if session.is_cohort and isinstance(value, dict):
            results.update(value)
        else:
            results[session.client] = value

    # ------------------------------------------------------------ multi-client

    @classmethod
    def for_clients(
        cls,
        channel: "MultiLinkChannel",
        trajectories: Sequence["TrajectoryTrace"],
        session_factory: Callable[[int, "ChannelTrace"], Session],
        sample_interval_s: float = 0.1,
        include_h: bool = False,
        recorder: Recorder = NULL_RECORDER,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> "SimulationEngine":
        """Build an engine serving one session per client trajectory.

        All client channels are evaluated on the shared grid in **one**
        :meth:`MultiLinkChannel.evaluate_many` call, a single client
        included, then ``session_factory(client_index, trace)`` builds
        each session.  A live ``recorder`` observes the channel
        evaluation too (batch size and wall time surface as a
        ``channel_batch`` event, ``channel_eval`` for a single client) —
        bound to the channel only for the duration of the evaluation, so
        the caller's channel comes back exactly as it went in.  ``supervisor``
        selects the run's failure policy (see
        :class:`repro.sim.SupervisorConfig`).
        """
        if len(trajectories) == 0:
            raise ValueError("need at least one client trajectory")
        if len(trajectories) != len(channel.links):
            raise ValueError(
                f"{len(channel.links)} links cannot serve {len(trajectories)} clients"
            )
        fine = TimeGrid(trajectories[0].times)
        stride = fine.stride_for(sample_interval_s, strict=False, name="sample_interval_s")
        times = trajectories[0].times[::stride]
        positions = []
        for trajectory in trajectories:
            if len(trajectory.times) != len(trajectories[0].times):
                raise ValueError("client trajectories must share the time grid")
            positions.append(trajectory.positions[::stride])
        bind = recorder.enabled and not channel.recorder.enabled
        original_recorder = channel.recorder
        if bind:
            channel.recorder = shield(recorder)
        try:
            traces = channel.evaluate_many(times, positions, include_h=include_h)
        finally:
            if bind:
                channel.recorder = original_recorder
        engine = cls(TimeGrid(times), recorder=recorder, supervisor=supervisor)
        for index, trace in enumerate(traces):
            engine.add(session_factory(index, trace))
        return engine


class EngineStepper:
    """Incremental driver over one engine run: ``begin → step* → finalize``.

    Owns the walk of the grid that :meth:`SimulationEngine.run` used to do
    in one piece, so callers can interleave stepping with outside work —
    the streaming router advances the world exactly as far as its ingested
    observations allow, and checkpoint resume re-enters mid-grid via
    :meth:`skip_to`.  Behaviour per step is identical to ``run()``: the
    same phase order, the same supervision semantics, the same telemetry
    events (``run()`` itself is implemented on top of this class, which is
    what keeps the two bit-identical by construction).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        recorder: Recorder,
        live: bool,
        supervisor: Supervisor,
    ) -> None:
        self.engine = engine
        self.recorder = recorder
        self.live = live
        self.supervisor = supervisor
        self._next = 0
        self._finalized = False
        self._by_client: Dict[str, Session] = {}
        for session in engine._sessions:
            self._by_client[session.client] = session
            for member in session.clients:
                self._by_client.setdefault(member, session)

    # -------------------------------------------------------------- queries

    @property
    def next_index(self) -> int:
        """Index of the grid step the next :meth:`step` call will run."""
        return self._next

    @property
    def done(self) -> bool:
        """True once the whole grid has been stepped (or skipped) past."""
        return self._next >= len(self.engine.grid)

    def next_clock(self) -> StepClock:
        """The clock of the upcoming step (raises once :attr:`done`)."""
        if self.done:
            raise RuntimeError("grid exhausted; finalize() the run")
        return self.engine.grid.clock(self._next)

    # ------------------------------------------------------------- stepping

    def skip_to(self, index: int) -> None:
        """Reposition the walk without running the skipped steps.

        Checkpoint resume only: the skipped steps' effects must already be
        present in the sessions' restored state (see
        :meth:`Session.load_state_dict`); skipping live steps in any other
        situation silently drops simulation work.
        """
        if not 0 <= index <= len(self.engine.grid):
            raise ValueError(
                f"step index {index} outside the {len(self.engine.grid)}-step grid"
            )
        self._next = index

    def step(self) -> None:
        """Run one grid step (all four phases, every session).

        A session that raises is handed to the supervisor, which aborts
        the run (``fail_fast``), suspends the session (``retry``) or
        quarantines it; every other session's phase schedule is untouched.
        """
        if self._finalized:
            raise RuntimeError("run already finalized")
        if self.done:
            raise RuntimeError("grid exhausted; finalize() the run")
        clock = self.engine.grid.clock(self._next)
        self._next += 1
        engine = self.engine
        supervisor = self.supervisor
        live = self.live
        supervisor.begin_step(clock, self._by_client, engine.grid)
        n_clients = (
            sum(
                s.n_active_clients
                for s in engine._sessions
                if supervisor.active(s.client)
            )
            if live
            else 0
        )
        for phase in engine.phases:
            t0 = perf_counter() if live else 0.0
            for session in engine._sessions:
                if not supervisor.active(session.client):
                    continue
                try:
                    getattr(session, phase)(clock)
                except Exception as exc:
                    supervisor.on_failure(
                        session,
                        engine._session_error(session, phase, clock.start_s, exc),
                        step=clock.index,
                    )
            if live:
                self.recorder.phase_time(
                    phase, clock.index, clock.start_s, perf_counter() - t0, n_clients=n_clients
                )

    def finalize(self) -> Dict[str, Any]:
        """Collect every session's ``finish()``; ``{client: result}``.

        Quarantined clients map to their :class:`repro.sim.FailureRecord`;
        every member of a quarantined cohort maps to its own record, or to
        the cohort's if it had none.
        """
        if self._finalized:
            raise RuntimeError("run already finalized")
        self._finalized = True
        engine = self.engine
        grid = engine.grid
        supervisor = self.supervisor
        results: Dict[str, Any] = {}
        for session in engine._sessions:
            record = supervisor.quarantined.get(session.client)
            if record is None:
                try:
                    engine._collect_result(results, session, session.finish())
                    continue
                except Exception as exc:
                    record = supervisor.on_failure(
                        session,
                        engine._session_error(session, "finish", grid.end_s, exc),
                        step=len(grid) - 1,
                    )
            for client in session.clients:
                results[client] = supervisor.quarantined.get(client, record)
        if self.live:
            self.recorder.event(
                "run_end",
                grid.end_s,
                n_steps=len(grid),
                n_quarantined=supervisor.n_quarantined,
            )
        return results

    def _start_sessions(self) -> None:
        engine = self.engine
        grid = engine.grid
        for session in engine._sessions:
            try:
                session.start(grid)
            except Exception as exc:
                self.supervisor.on_failure(
                    session,
                    engine._session_error(session, "start", grid.start_s, exc),
                    step=0,
                )
