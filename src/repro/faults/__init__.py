"""Fault injection for degraded-input and chaos studies (``repro.faults``).

Two layers of deterministic, seeded failure injection:

* **input-stream corruption** (:mod:`repro.faults.injectors`) — drop,
  duplicate, delay, NaN over the ToF/CSI sensing streams, composable
  through :class:`FaultPlan` and wired into
  :class:`repro.sim.BatchedSensingSession`;
* **component-level chaos** (:mod:`repro.faults.chaos`) —
  :class:`SessionCrashFault` (raise in a chosen phase/step),
  :class:`ChannelEvalFault`, and :class:`RecorderFault`, the harness for
  the engine's supervision policies (:mod:`repro.sim.supervisor`); plus
  the service-runtime injectors :class:`SourceFault` (a flaky
  observation source), :class:`CheckpointCorruptionFault` (torn/rotted
  artifacts on disk), and :class:`ServiceKillFault` (a mid-run hard
  crash), the harness for the self-healing runtime
  (:mod:`repro.resilience`).

See ``docs/architecture.md`` ("Degraded input & fault injection",
"Supervision & failure domains") for semantics and runnable examples.
"""

from repro.faults.chaos import (
    ChannelEvalFault,
    ChaosSession,
    CheckpointCorruptionFault,
    InjectedFault,
    RecorderFault,
    ServiceKilled,
    ServiceKillFault,
    SessionCrashFault,
    SourceFault,
)
from repro.faults.injectors import (
    DelayFault,
    DropFault,
    DuplicateFault,
    Fault,
    FaultPlan,
    NaNFault,
)

__all__ = [
    "ChannelEvalFault",
    "ChaosSession",
    "CheckpointCorruptionFault",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "NaNFault",
    "RecorderFault",
    "ServiceKilled",
    "ServiceKillFault",
    "SessionCrashFault",
    "SourceFault",
]
