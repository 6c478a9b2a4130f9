"""Per-session fault isolation for the simulation engine.

The paper's mobility hints are *advisory*: a serving AP keeps carrying
traffic for every associated client even when one client's sensing or
classification pipeline misbehaves.  The engine mirrors that failure
domain here — a :class:`Supervisor` (one per run, built from a
:class:`SupervisorConfig`) decides what happens when a session raises:

* ``fail_fast`` — the default: the wrapped :class:`repro.sim.SessionError`
  propagates and the run dies, after a terminal ``run_abort`` trace event
  so JSONL traces are never silently truncated;
* ``isolate`` — the failing session is quarantined at the failing step:
  its remaining phase calls (and ``finish``) are skipped, its downstream
  consumers receive a safe mobility-oblivious default hint instead of
  stale state (:meth:`repro.sim.Session.on_quarantine`), every other
  session runs to completion, and ``run()`` returns partial results with
  a structured :class:`FailureRecord` in the failed client's slot;
* ``retry`` — a failing session is suspended for a deterministic
  *simulation-time* backoff (``backoff_base_s * backoff_factor**k`` after
  its ``k``-th failure), resumed at the first step past the deadline, and
  escalated to quarantine once ``max_retries`` is exhausted.

Everything the supervisor does is a pure function of simulation time and
the failure sequence — no wall clock, no RNG — so a seeded chaos run
(see :mod:`repro.faults.chaos`) reproduces the same quarantine set and
bit-identical surviving-client results on every execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Set

from repro.telemetry.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.sim.engine import Session, SessionError, StepClock, TimeGrid

#: The failure policies a :class:`SupervisorConfig` can select.
POLICIES = ("fail_fast", "isolate", "retry")


@dataclass(frozen=True)
class SupervisorConfig:
    """How the engine treats a session that raises mid-run.

    Attributes:
        policy: one of :data:`POLICIES`.  ``fail_fast`` (default) keeps
            the historical abort-everything behaviour bit-identical.
        max_retries: under ``retry``, failures absorbed per session before
            it is quarantined (0 behaves like ``isolate``).
        backoff_base_s: simulation-time suspension after the first failure.
        backoff_factor: multiplier applied per subsequent failure
            (deterministic exponential backoff on the simulation clock).
    """

    policy: str = "fail_fast"
    max_retries: int = 2
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.backoff_base_s <= 0:
            raise ValueError(f"backoff_base_s must be positive, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    @property
    def fail_fast(self) -> bool:
        return self.policy == "fail_fast"

    def backoff_s(self, failure_index: int) -> float:
        """Suspension after a session's ``failure_index``-th failure (1-based)."""
        return self.backoff_base_s * self.backoff_factor ** max(failure_index - 1, 0)


@dataclass(frozen=True)
class FailureRecord:
    """One quarantined session, as surfaced in a run's partial results.

    ``retries`` counts the failures the supervisor absorbed (suspend +
    resume cycles) before this terminal one — always 0 under ``isolate``.
    """

    client: str
    phase: str
    step: int
    time_s: float
    exception_type: str
    message: str
    retries: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly dict (the failure-report exporter format)."""
        return {
            "client": self.client,
            "phase": self.phase,
            "step": self.step,
            "time_s": self.time_s,
            "exception_type": self.exception_type,
            "message": self.message,
            "retries": self.retries,
        }


def _record_from(error: "SessionError", step: int, retries: int) -> FailureRecord:
    cause = error.__cause__ if error.__cause__ is not None else error
    return FailureRecord(
        client=error.client,
        phase=error.phase,
        step=step,
        time_s=error.time_s,
        exception_type=type(cause).__name__,
        message=str(cause),
        retries=retries,
    )


class Supervisor:
    """Run-scoped failure bookkeeping; the engine builds one per ``run()``.

    The engine consults :meth:`active` before every phase call and routes
    every :class:`repro.sim.SessionError` through :meth:`on_failure`,
    under every policy; the supervisor owns the abort (``run_abort``), the
    quarantine set, the retry budgets, and the simulation-time suspension
    deadlines, and emits the supervision counters (``supervisor.failures``
    / ``supervisor.retries`` / ``supervisor.quarantined``) and trace
    events (``session_failed``, ``session_quarantined``,
    ``session_resumed``).
    """

    def __init__(self, config: SupervisorConfig, recorder: Recorder = NULL_RECORDER) -> None:
        self.config = config
        self.recorder = recorder
        #: Quarantined clients, in quarantine order: ``{client: FailureRecord}``.
        self.quarantined: Dict[str, FailureRecord] = {}
        #: Total failures seen per client (retried and terminal).
        self.failure_counts: Dict[str, int] = {}
        self._suspended_until: Dict[str, float] = {}
        self._needs_start: Set[str] = set()

    # ---------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, Any]:
        """Plain-value snapshot of the failure bookkeeping.

        Restoring it into a fresh supervisor (same config) reproduces the
        quarantine set, the retry budgets, and the pending suspension
        deadlines — resumed runs neither re-run quarantined sessions nor
        forget in-flight backoffs.
        """
        return {
            "quarantined": {c: r.to_dict() for c, r in self.quarantined.items()},
            "failure_counts": dict(self.failure_counts),
            "suspended_until": dict(self._suspended_until),
            "needs_start": sorted(self._needs_start),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.quarantined = {
            client: FailureRecord(**record)
            for client, record in state["quarantined"].items()
        }
        self.failure_counts = dict(state["failure_counts"])
        self._suspended_until = dict(state["suspended_until"])
        self._needs_start = set(state["needs_start"])

    # ------------------------------------------------------------- queries

    def active(self, client: str) -> bool:
        """Whether ``client`` should run its phases at the current step."""
        return client not in self.quarantined and client not in self._suspended_until

    def is_quarantined(self, client: str) -> bool:
        return client in self.quarantined

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    # ------------------------------------------------------------ stepping

    def begin_step(
        self, clock: "StepClock", sessions: Mapping[str, "Session"], grid: "TimeGrid"
    ) -> None:
        """Resume suspended sessions whose backoff deadline has passed.

        A session that failed in ``start`` gets its ``start`` re-attempted
        here; a fresh failure feeds straight back into :meth:`on_failure`.
        """
        if not self._suspended_until:
            return
        due = [
            client
            for client, resume_s in self._suspended_until.items()
            if resume_s <= clock.start_s
        ]
        for client in due:
            del self._suspended_until[client]
            if self.recorder.enabled:
                self.recorder.event(
                    "session_resumed", clock.start_s, client=client, step=clock.index
                )
            session = sessions.get(client)
            if session is not None:
                try:
                    session.on_resume(client, clock.start_s)
                except Exception:  # noqa: BLE001 - degradation must only degrade
                    if self.recorder.enabled:
                        self.recorder.count("supervisor.degrade_errors", client=client)
            if client in self._needs_start:
                self._needs_start.discard(client)
                session = sessions[client]
                try:
                    session.start(grid)
                except Exception as exc:  # noqa: BLE001 - supervised boundary
                    from repro.sim.engine import SessionError

                    error = exc if isinstance(exc, SessionError) else SessionError(
                        client, "start", clock.start_s, exc
                    )
                    self.on_failure(session, error, step=clock.index)

    # ------------------------------------------------------------ failures

    def on_failure(
        self, session: "Session", error: "SessionError", step: int
    ) -> Optional[FailureRecord]:
        """Apply the policy to one failure: abort, suspend or quarantine.

        Under ``fail_fast`` this emits the terminal ``run_abort`` trace
        event and re-raises ``error``, recording nothing else.  Otherwise
        returns the :class:`FailureRecord` when the failure escalated to
        quarantine, ``None`` when the session was merely suspended (retry).
        """
        if self.config.fail_fast:
            if self.recorder.enabled:
                self.recorder.event(
                    "run_abort", error.time_s, client=error.client, phase=error.phase, step=step
                )
            raise error
        client = error.client
        count = self.failure_counts.get(client, 0) + 1
        self.failure_counts[client] = count
        live = self.recorder.enabled
        cause = error.__cause__ if error.__cause__ is not None else error
        if live:
            self.recorder.count("supervisor.failures", client=client)
            self.recorder.event(
                "session_failed",
                error.time_s,
                client=client,
                step=step,
                phase=error.phase,
                exception=type(cause).__name__,
                error=str(cause),
            )
        if (
            self.config.policy == "retry"
            and error.phase != "finish"
            and count <= self.config.max_retries
        ):
            resume_s = error.time_s + self.config.backoff_s(count)
            self._suspended_until[client] = resume_s
            if error.phase == "start":
                self._needs_start.add(client)
            if live:
                self.recorder.count("supervisor.retries", client=client)
                self.recorder.event(
                    "session_retry",
                    error.time_s,
                    client=client,
                    step=step,
                    phase=error.phase,
                    attempt=count,
                    resume_s=resume_s,
                )
            try:
                session.on_suspend(client, error.time_s, resume_s)
            except Exception:  # noqa: BLE001 - degradation must only degrade
                if live:
                    self.recorder.count("supervisor.degrade_errors", client=client)
            return None
        return self.quarantine(session, error, step=step, retries=count - 1)

    def quarantine(
        self, session: "Session", error: "SessionError", step: int, retries: int = 0
    ) -> FailureRecord:
        """Quarantine ``session`` at the failing step and degrade safely.

        The session's :meth:`repro.sim.Session.on_quarantine` hook pushes a
        safe mobility-oblivious hint to downstream consumers; the hook is
        itself guarded — degradation must never take the run down with it.
        """
        record = _record_from(error, step=step, retries=retries)
        self.quarantined[error.client] = record
        self._suspended_until.pop(error.client, None)
        self._needs_start.discard(error.client)
        if self.recorder.enabled:
            self.recorder.count("supervisor.quarantined")
            self.recorder.event(
                "session_quarantined",
                error.time_s,
                client=error.client,
                step=step,
                phase=error.phase,
                exception=record.exception_type,
                error=record.message,
                retries=retries,
            )
        try:
            session.on_quarantine(error.time_s, record)
        except Exception:  # noqa: BLE001 - degradation must only degrade
            if self.recorder.enabled:
                self.recorder.count("supervisor.degrade_errors", client=error.client)
        return record
