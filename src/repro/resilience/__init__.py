"""repro.resilience — the self-healing service runtime.

The streaming service (:mod:`repro.stream`) made the classifier a
long-running system; this package makes it a *survivable* one.  A
:class:`ResilientService` supervises one :class:`repro.stream.StreamRouter`
so that every known failure mode is handled, counted, and bit-reproducible:

* **automatic horizon rollover** — the typed
  :class:`repro.stream.HorizonExhausted` signal is absorbed mid-advance
  by an in-memory checkpoint/restore into the next grid segment;
  estimates continue bit-identically with a single long-grid run;
* **supervised checkpointing** — :class:`CheckpointManager` (defined
  with the artifact format in :mod:`repro.stream.checkpoint`) writes
  sha256-stamped artifacts on a deterministic sim-time cadence with
  keep-last-K retention; :func:`scan_checkpoints` /
  :meth:`ResilientService.recover` resume from the newest *valid* one,
  refusing corrupt artifacts loudly;
* **source fault tolerance** — :class:`SupervisedSource` gives any
  restartable source (:class:`SourceSpec`) retry with deterministic
  exponential backoff and a circuit breaker, while the service serves
  safe-default hints to a down source's clients.

Every decision is visible under the registered ``resilience.*``
telemetry names, and the recovery SLOs are asserted by the chaos
campaign: ``python -m repro.experiments resilience``.  See the
"Self-healing runtime" section of ``docs/architecture.md``.
"""

from repro.resilience.config import ResilienceConfig
from repro.resilience.service import ResilientService
from repro.resilience.sources import SourceSpec, SupervisedSource
from repro.stream.checkpoint import (
    ARTIFACT_SUFFIX,
    CheckpointManager,
    artifact_name,
    list_artifacts,
    scan_checkpoints,
)

__all__ = [
    "ARTIFACT_SUFFIX",
    "CheckpointManager",
    "ResilienceConfig",
    "ResilientService",
    "SourceSpec",
    "SupervisedSource",
    "artifact_name",
    "list_artifacts",
    "scan_checkpoints",
]
