"""Component-level chaos injection: crash the pipeline, not just its input.

:mod:`repro.faults.injectors` degrades the *data* a sensing pipeline
consumes; this module breaks the *components* themselves — a session that
raises mid-phase, a channel evaluation that blows up, a telemetry sink
that throws from inside an observation hook.  Together with the engine's
supervision policies (:mod:`repro.sim.supervisor`) they make failure
containment testable: seed a crash, run under ``isolate``/``retry``, and
assert the quarantine set and every survivor's results are reproduced bit
for bit.

All injectors are deterministic: a pinned location (``at_step`` /
``at_call``) or a seeded RNG that is private to the injector, so the
simulation's own RNG streams are never perturbed.  Injected failures
raise :class:`InjectedFault`, distinguishable from organic bugs.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator, NoReturn, Optional, Union

from repro.sim.engine import Session, StepClock, TimeGrid
from repro.telemetry.recorder import Recorder
from repro.util.rng import SeedLike, ensure_rng

#: Phases a :class:`SessionCrashFault` can target (engine phases plus the
#: session lifecycle hooks).
CRASHABLE_PHASES = ("start", "sense", "classify", "adapt", "transmit", "finish")


class InjectedFault(RuntimeError):
    """Raised by chaos injectors; never thrown by organic simulation code."""


class ServiceKilled(InjectedFault):
    """Raised by :class:`ServiceKillFault` — a simulated hard process
    crash.  The service gets no chance to checkpoint or clean up; the
    recovery campaign resumes it from the newest valid on-disk artifact
    (:meth:`repro.resilience.ResilientService.recover`)."""


class SessionCrashFault:
    """Crash a wrapped session in a chosen phase at chosen step(s).

    ``at_step`` pins the first crashing step; leave it ``None`` and the
    fault picks one uniformly over the run from its own seeded RNG when
    the session starts.  ``n_crashes`` consecutive steps raise — one
    transient crash exercises the ``retry`` policy's suspend/resume path,
    ``n_crashes > max_retries`` forces escalation to quarantine.  For
    ``phase="start"``/``"finish"`` the step machinery does not apply and
    the hook simply raises (``n_crashes`` times for ``start``, so a
    retried re-start can recover).

    Usage::

        fault = SessionCrashFault(phase="classify", at_step=5)
        engine.add(fault.wrap(session))
    """

    def __init__(
        self,
        phase: str = "classify",
        at_step: Optional[int] = None,
        n_crashes: int = 1,
        seed: SeedLike = None,
        message: str = "injected session crash",
    ) -> None:
        if phase not in CRASHABLE_PHASES:
            raise ValueError(f"phase must be one of {CRASHABLE_PHASES}, got {phase!r}")
        if at_step is not None and at_step < 0:
            raise ValueError(f"at_step must be non-negative, got {at_step}")
        if n_crashes < 1:
            raise ValueError(f"n_crashes must be positive, got {n_crashes}")
        self.phase = phase
        self.at_step = at_step
        self.n_crashes = n_crashes
        self.message = message
        self._seed = seed
        self.n_fired = 0

    def arm(self, n_steps: int) -> None:
        """Fix the crash window for a run of ``n_steps`` (seeded if unpinned)."""
        if self.at_step is None:
            self.at_step = int(ensure_rng(self._seed).integers(0, max(n_steps, 1)))

    def should_crash(self, phase: str, step: int) -> bool:
        if phase != self.phase:
            return False
        first = self.at_step if self.at_step is not None else 0
        return first <= step < first + self.n_crashes

    def fire(self) -> None:
        self.n_fired += 1
        raise InjectedFault(self.message)

    def wrap(self, session: Session) -> "ChaosSession":
        """The session, wrapped to crash per this fault's schedule."""
        return ChaosSession(session, self)


class ChaosSession(Session):
    """Delegates every hook to ``inner``, raising per the fault schedule."""

    def __init__(self, inner: Session, fault: SessionCrashFault) -> None:
        self.inner = inner
        self.client = inner.client
        self.fault = fault
        self._start_attempts = 0

    def bind_recorder(self, recorder: Recorder) -> None:
        super().bind_recorder(recorder)
        self.inner.bind_recorder(recorder)

    def start(self, grid: TimeGrid) -> None:
        self.fault.arm(len(grid))
        if self.fault.phase == "start":
            self._start_attempts += 1
            if self._start_attempts <= self.fault.n_crashes:
                self.fault.fire()
        self.inner.start(grid)

    def _phase(self, phase: str, clock: StepClock) -> None:
        if self.fault.should_crash(phase, clock.index):
            self.fault.fire()
        getattr(self.inner, phase)(clock)

    def sense(self, clock: StepClock) -> None:
        self._phase("sense", clock)

    def classify(self, clock: StepClock) -> None:
        self._phase("classify", clock)

    def adapt(self, clock: StepClock) -> None:
        self._phase("adapt", clock)

    def transmit(self, clock: StepClock) -> None:
        self._phase("transmit", clock)

    def finish(self) -> Any:
        if self.fault.phase == "finish":
            self.fault.fire()
        return self.inner.finish()

    def on_quarantine(self, time_s: float, record) -> None:
        self.inner.on_quarantine(time_s, record)


class _ChaosChannel:
    """Attribute-transparent proxy raising on a chosen evaluation call."""

    def __init__(self, inner: Any, fault: "ChannelEvalFault") -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_fault", fault)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._inner, name, value)

    def evaluate_many(self, *args: Any, **kwargs: Any) -> Any:
        self._fault.check()
        return self._inner.evaluate_many(*args, **kwargs)

    def evaluate(self, *args: Any, **kwargs: Any) -> Any:
        self._fault.check()
        return self._inner.evaluate(*args, **kwargs)


class ChannelEvalFault:
    """Make a wrapped channel's ``evaluate``/``evaluate_many`` raise.

    ``at_call`` counts evaluation calls across the wrapper (0 = the first
    one).  Exercises the engine-builder paths: a failing batched
    evaluation in :meth:`repro.sim.SimulationEngine.for_clients` must
    still leave the caller's channel unmutated.
    """

    def __init__(self, at_call: int = 0, message: str = "injected channel failure") -> None:
        if at_call < 0:
            raise ValueError(f"at_call must be non-negative, got {at_call}")
        self.at_call = at_call
        self.message = message
        self.n_calls = 0
        self.n_fired = 0

    def check(self) -> None:
        call = self.n_calls
        self.n_calls += 1
        if call == self.at_call:
            self.n_fired += 1
            raise InjectedFault(self.message)

    def wrap(self, channel: Any) -> Any:
        """The channel, wrapped to raise on the scheduled evaluation."""
        return _ChaosChannel(channel, self)


class _ChaosRecorder(Recorder):
    """Forwards hooks to ``inner``, raising per the fault's seeded draws."""

    def __init__(self, inner: Recorder, fault: "RecorderFault") -> None:
        self.inner = inner
        self.fault = fault
        self.enabled = inner.enabled

    def count(self, name: str, value: float = 1.0, client: Optional[str] = None) -> None:
        self.fault.check("count")
        self.inner.count(name, value, client=client)

    def gauge(self, name: str, value: float, client: Optional[str] = None) -> None:
        self.fault.check("gauge")
        self.inner.gauge(name, value, client=client)

    def observe(self, name: str, value: float, client: Optional[str] = None) -> None:
        self.fault.check("observe")
        self.inner.observe(name, value, client=client)

    def event(
        self,
        kind: str,
        time_s: float,
        client: Optional[str] = None,
        step: Optional[int] = None,
        **fields: Any,
    ) -> None:
        self.fault.check("event")
        self.inner.event(kind, time_s, client=client, step=step, **fields)

    def phase_time(
        self, phase: str, step: int, time_s: float, elapsed_s: float, n_clients: int = 1
    ) -> None:
        self.fault.check("phase_time")
        self.inner.phase_time(phase, step, time_s, elapsed_s, n_clients=n_clients)

    def channel_eval(
        self,
        op: str,
        batch_size: int,
        n_samples: int,
        elapsed_s: float,
        time_s: float = 0.0,
    ) -> None:
        self.fault.check("channel_eval")
        self.inner.channel_eval(op, batch_size, n_samples, elapsed_s, time_s=time_s)


class RecorderFault:
    """Make a wrapped recorder's hooks raise with seeded probability.

    The acceptance harness for "observability must only observe": an
    engine run whose recorder is wrapped by this fault must complete with
    bit-identical results — the engine's shield
    (:class:`repro.telemetry.ShieldedRecorder`) absorbs every raise.
    ``hooks`` restricts which hook names can fire; ``rate=1.0`` raises on
    every targeted hook call.
    """

    def __init__(
        self,
        rate: float = 1.0,
        seed: SeedLike = None,
        hooks: Iterable[str] = ("count", "gauge", "observe", "event", "phase_time", "channel_eval"),
        message: str = "injected recorder failure",
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.hooks = frozenset(hooks)
        self.message = message
        self._rng = ensure_rng(seed)
        self.n_fired = 0

    def check(self, hook: str) -> None:
        if hook not in self.hooks:
            return
        if self.rate >= 1.0 or self._rng.random() < self.rate:
            self.n_fired += 1
            raise InjectedFault(f"{self.message} ({hook})")

    def wrap(self, recorder: Recorder) -> Recorder:
        """The recorder, wrapped to raise per this fault's schedule."""
        return _ChaosRecorder(recorder, self)


class SourceFault:
    """Make a wrapped observation source raise at a chosen raw position.

    ``at_index`` counts raw observations from the start of the *sequence*
    (0 = the first one), not from the start of one iteration: a
    supervised source that restarts and fast-forwards after a failure
    walks the same indices again, so with ``n_failures > 1`` the retry
    attempt re-fails at the same spot — exactly the consecutive-failure
    shape that escalates :class:`repro.resilience.SupervisedSource`'s
    circuit breaker.  Leave ``at_index`` ``None`` and :meth:`arm` picks
    one uniformly from the fault's own seeded RNG (never the
    simulation's).  The firing budget (``n_failures``) is shared across
    every :meth:`wrap` call, so a source factory can re-wrap the same
    fault on each restart and the flakiness stays transient.

    Usage::

        fault = SourceFault(at_index=120, n_failures=1)
        spec = SourceSpec("trace", lambda: fault.wrap(events), clients)
    """

    def __init__(
        self,
        at_index: Optional[int] = None,
        n_failures: int = 1,
        seed: SeedLike = None,
        message: str = "injected source failure",
    ) -> None:
        if at_index is not None and at_index < 0:
            raise ValueError(f"at_index must be non-negative, got {at_index}")
        if n_failures < 1:
            raise ValueError(f"n_failures must be positive, got {n_failures}")
        self.at_index = at_index
        self.n_failures = n_failures
        self.message = message
        self._seed = seed
        self.n_fired = 0

    def arm(self, n_observations: int) -> None:
        """Fix the failing position over ``n_observations`` (seeded if unpinned)."""
        if self.at_index is None:
            self.at_index = int(
                ensure_rng(self._seed).integers(0, max(n_observations, 1))
            )

    def wrap(self, observations: Iterable[Any]) -> Iterator[Any]:
        """The observation sequence, raising per this fault's schedule."""

        def generate() -> Iterator[Any]:
            for index, observation in enumerate(observations):
                if (
                    self.at_index is not None
                    and index == self.at_index
                    and self.n_fired < self.n_failures
                ):
                    self.n_fired += 1
                    raise InjectedFault(self.message)
                yield observation

        return generate()


#: Ways a :class:`CheckpointCorruptionFault` can damage an artifact.
CORRUPTION_MODES = ("truncate", "flip_byte", "wrong_format")


class CheckpointCorruptionFault:
    """Damage a checkpoint artifact on disk, deterministically.

    Models the failures a long-lived service actually meets: a torn
    write (``truncate`` keeps the leading third of the file), silent bit
    rot (``flip_byte`` XOR-flips one byte two thirds in — past the fixed
    header of a v3 artifact, in the region its sha256 digest covers), and
    a foreign file dropped into the checkpoint directory (``wrong_format``
    writes a small JSON document in its place).  The recovery scan
    (:func:`repro.resilience.scan_checkpoints`) must refuse the damaged
    artifact loudly and fall back to the next-newest valid one.
    """

    def __init__(self, mode: str = "flip_byte") -> None:
        if mode not in CORRUPTION_MODES:
            raise ValueError(f"mode must be one of {CORRUPTION_MODES}, got {mode!r}")
        self.mode = mode
        self.n_fired = 0

    def corrupt(self, path: Union[str, os.PathLike]) -> None:
        """Damage the artifact at ``path`` in place per :attr:`mode`."""
        name = os.fspath(path)
        if self.mode == "wrong_format":
            payload = json.dumps({"format": "not.a.checkpoint", "version": 0})
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            with open(name, "rb") as handle:
                data = bytearray(handle.read())
            if not data:
                raise ValueError(f"cannot corrupt empty artifact {name!r}")
            if self.mode == "truncate":
                data = data[: len(data) // 3]
            else:  # flip_byte
                data[(len(data) * 2) // 3] ^= 0xFF
            with open(name, "wb") as handle:
                handle.write(bytes(data))
        self.n_fired += 1


class ServiceKillFault:
    """Hard-kill a supervised service once it completes a chosen step.

    ``at_step`` counts *global* service steps (across horizon rollovers
    and, after a recovery, across process incarnations); leave it
    ``None`` and :meth:`arm` draws one from the fault's own seeded RNG.
    :class:`repro.resilience.ResilientService` consults :meth:`due` after
    every engine step and calls :meth:`fire`, which raises
    :class:`ServiceKilled` — simulating a crash that never reaches a
    checkpoint or a clean shutdown.  The fault fires at most once.
    """

    def __init__(
        self,
        at_step: Optional[int] = None,
        seed: SeedLike = None,
        message: str = "injected service kill",
    ) -> None:
        if at_step is not None and at_step < 0:
            raise ValueError(f"at_step must be non-negative, got {at_step}")
        self.at_step = at_step
        self.message = message
        self._seed = seed
        self.n_fired = 0

    def arm(self, n_steps: int) -> None:
        """Fix the kill step for an ``n_steps`` campaign (seeded if unpinned)."""
        if self.at_step is None:
            self.at_step = int(ensure_rng(self._seed).integers(1, max(n_steps, 2)))

    def due(self, total_steps: int) -> bool:
        """Whether the kill should fire once ``total_steps`` have run."""
        return (
            self.n_fired == 0
            and self.at_step is not None
            and total_steps >= self.at_step
        )

    def fire(self) -> NoReturn:
        self.n_fired += 1
        raise ServiceKilled(self.message)
