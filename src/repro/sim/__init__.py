"""repro.sim — the unified sense→classify→adapt→transmit simulation engine.

One :class:`SimulationEngine` owns the time grid and drives pluggable
per-client :class:`Session` components; the protocol entry points in
``repro.wlan`` (stack, scheduler), ``repro.roaming`` and
``repro.rate`` are thin configurations of this loop.  Multi-client runs
evaluate their channels through the batched
:class:`repro.channel.model.MultiLinkChannel` path.

Failure containment is configured per run through
:class:`SupervisorConfig` (``fail_fast`` — the default strict abort —
``isolate``, or ``retry``); quarantined clients surface as
:class:`FailureRecord` partial results.  See
:mod:`repro.sim.supervisor`.
"""

from repro.sim.engine import (
    PHASES,
    EngineStepper,
    Session,
    SessionError,
    SimulationEngine,
    StepClock,
    TimeGrid,
)
from repro.sim.sessions import BatchedSensingSession
from repro.sim.supervisor import POLICIES, FailureRecord, Supervisor, SupervisorConfig

__all__ = [
    "PHASES",
    "POLICIES",
    "BatchedSensingSession",
    "EngineStepper",
    "FailureRecord",
    "Session",
    "SessionError",
    "SimulationEngine",
    "StepClock",
    "Supervisor",
    "SupervisorConfig",
    "TimeGrid",
]
