"""repro.stream — the streaming ingestion service.

Runs the paper's classifier as a long-running online system: a
:class:`StreamRouter` accepts interleaved per-client
:class:`Observation` events (timestamped CSI matrices / ToF readings)
from pluggable sources — :func:`repro.io.stream.replay_source` replaying
real CSI Tool captures, :class:`SimulatedSource` as a seeded load
generator — and drives a cohort
:class:`repro.sim.BatchedSensingSession` on the shared
:class:`repro.sim.SimulationEngine` through bounded per-session queues.

The contract that makes it trustworthy: streaming a trace through the
router is **bit-identical** to batch-feeding the same observations, and
a checkpoint/restore (:func:`save_checkpoint` / :func:`load_checkpoint`)
resumes **bit-identically** on the same remaining stream.  Backpressure
(block / drop-oldest / shed-session), idle-session eviction, and every
other lossy decision is explicit and counted under the registered
``stream.*`` telemetry names.

See the "Streaming ingestion" section of ``docs/architecture.md``.
"""

from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CorruptCheckpoint,
    checkpoint_state,
    load_checkpoint,
    read_checkpoint_state,
    restore_router,
    save_checkpoint,
)
from repro.stream.observations import KINDS, Observation
from repro.stream.queues import SessionQueue
from repro.stream.router import (
    BACKPRESSURE_POLICIES,
    HorizonExhausted,
    StreamConfig,
    StreamingSensingSession,
    StreamRouter,
)
from repro.stream.sources import FleetSpec, SimulatedSource

__all__ = [
    "BACKPRESSURE_POLICIES",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CorruptCheckpoint",
    "FleetSpec",
    "HorizonExhausted",
    "KINDS",
    "Observation",
    "SessionQueue",
    "SimulatedSource",
    "StreamConfig",
    "StreamRouter",
    "StreamingSensingSession",
    "checkpoint_state",
    "load_checkpoint",
    "read_checkpoint_state",
    "restore_router",
    "save_checkpoint",
]
