"""Pluggable observation sources for the streaming ingestion service.

A *source* is just an iterable of :class:`repro.stream.Observation`
events in non-decreasing time order, interleaved across clients — the
shape a capture pipeline or message bus would deliver.  Two concrete
sources ship here:

* :class:`SimulatedSource` — a seeded load generator over a synthetic
  fleet (mostly static, a configurable fraction walking with live ToF),
  used by the benchmarks to push the router to thousands of concurrent
  sessions and by the equivalence tests as a deterministic trace both
  the batch and streaming paths can consume;
* :func:`repro.io.stream.replay_source` — real CSI Tool captures
  replayed as a stream (the adapter lives in :mod:`repro.io` next to the
  format reader).

Sources are deliberately dumb: pacing, backpressure, and eviction are
the router's job (:mod:`repro.stream.router`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.stream.observations import Observation
from repro.util.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a :class:`SimulatedSource` synthetic fleet.

    Attributes:
        n_clients: fleet size (one streaming session per client).
        duration_s: trace length.
        csi_period_s: per-client CSI observation cadence (the paper's
            500 ms by default).
        tof_interval_s: raw ToF sampling interval for walking clients
            (the paper's 20 ms).
        walking_every: every ``walking_every``-th client walks (ToF trend
            active); the rest are static.
        n_gains: flattened CSI gain vector length per observation.
    """

    n_clients: int = 8
    duration_s: float = 30.0
    csi_period_s: float = 0.5
    tof_interval_s: float = 0.02
    walking_every: int = 8
    n_gains: int = 16

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.duration_s <= 0 or self.csi_period_s <= 0 or self.tof_interval_s <= 0:
            raise ValueError("durations and cadences must be positive")
        if self.walking_every < 1:
            raise ValueError(f"walking_every must be >= 1, got {self.walking_every}")
        if self.n_gains < 2:
            raise ValueError(f"n_gains must be >= 2, got {self.n_gains}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.duration_s / self.csi_period_s)))


class SimulatedSource:
    """Seeded synthetic observation stream over a client fleet.

    Mirrors the benchmark fleet: every client emits one CSI gain vector
    per ``csi_period_s`` (static clients drift slowly, walking clients
    churn), and walking clients additionally emit 20 ms ToF readings with
    a linear away-trend.  The same seed always yields the same
    observation sequence, and :meth:`batch_inputs` exposes the identical
    trace in the batch session's array layout — the bridge the
    stream-vs-batch bit-identity tests are built on.
    """

    def __init__(self, spec: Optional[FleetSpec] = None, seed: SeedLike = 17) -> None:
        self.spec = spec if spec is not None else FleetSpec()
        self.seed = seed
        self.labels: List[str] = [f"client-{i}" for i in range(self.spec.n_clients)]
        self._materialized: Optional[
            Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]
        ] = None

    # ------------------------------------------------------------ the trace

    def _materialize(self) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
        """Generate the full fleet trace once (seeded, cached)."""
        if self._materialized is not None:
            return self._materialized
        spec = self.spec
        rng = ensure_rng(self.seed)
        n, k, n_steps = spec.n_clients, spec.n_gains, spec.n_steps
        base = np.abs(rng.normal(1.0, 0.3, (n, k))) + 0.05
        slab = (
            np.abs(
                base[None, :, :]
                + np.cumsum(0.01 * rng.normal(0, 1, (n_steps, n, k)), axis=0)
            )
            + 0.01
        )
        # Walking clients churn: fresh independent gains every step push
        # CSI similarity under the device-mobility threshold, which turns
        # the ToF gate on (Fig. 5) so their away-trend classifies as macro.
        walking = np.arange(0, n, spec.walking_every)
        slab[:, walking, :] = (
            np.abs(rng.normal(1.0, 1.0, (n_steps, len(walking), k))) + 0.01
        )
        walk_t = np.arange(0.0, spec.duration_s, spec.tof_interval_s)
        empty = np.empty(0)
        tof_times: List[np.ndarray] = []
        tof_readings: List[np.ndarray] = []
        for i in range(n):
            if i % spec.walking_every == 0:
                tof_times.append(walk_t)
                tof_readings.append(
                    200.0 + 0.6 * walk_t + rng.normal(0, 0.05, len(walk_t))
                )
            else:
                tof_times.append(empty)
                tof_readings.append(empty)
        self._materialized = (slab, tof_times, tof_readings)
        return self._materialized

    def batch_inputs(
        self,
    ) -> Tuple[List[List[np.ndarray]], List[np.ndarray], List[np.ndarray]]:
        """The same trace in ``BatchedSensingSession`` input layout:
        ``(csi_by_client, tof_times_by_client, tof_readings_by_client)``."""
        slab, tof_times, tof_readings = self._materialize()
        n_steps = self.spec.n_steps
        csi_by_client = [
            [slab[s, i] for s in range(n_steps)] for i in range(self.spec.n_clients)
        ]
        return csi_by_client, list(tof_times), list(tof_readings)

    def __iter__(self) -> Iterator[Observation]:
        """Observations in delivery order: non-decreasing time, interleaved.

        Within one instant, ToF readings precede CSI snapshots (matching
        the engine's sense-before-classify phase order) and clients come
        in index order.  The order is one ``np.lexsort`` over the events'
        time, kind and client columns; each :class:`Observation` is built
        as it is yielded, so the objects (and the CSI payload views) are
        made in arrival order, as a live capture would make them.
        """
        slab, tof_times, tof_readings = self._materialize()
        spec = self.spec
        n, n_steps = spec.n_clients, spec.n_steps
        tof_counts = [len(times) for times in tof_times]
        n_tof = sum(tof_counts)
        # Event columns: ToF readings client by client, then CSI snapshots
        # step by step.  ``row`` indexes the reading (ToF) or the step (CSI).
        steps = np.arange(n_steps)
        time_s = np.concatenate(tof_times + [np.repeat(steps * spec.csi_period_s, n)])
        kind = np.repeat(np.array([0, 1], dtype=np.int8), [n_tof, n_steps * n])
        client = np.concatenate(
            [np.repeat(np.arange(n), tof_counts), np.tile(np.arange(n), n_steps)]
        )
        row = np.concatenate([np.arange(n_tof), np.repeat(steps, n)])
        order = np.lexsort((client, kind, time_s))
        readings = np.concatenate(tof_readings).tolist()
        labels = self.labels
        for t, k, i, j in zip(
            time_s[order].tolist(),
            kind[order].tolist(),
            client[order].tolist(),
            row[order].tolist(),
        ):
            if k:
                yield Observation(labels[i], t, "csi", slab[j, i])
            else:
                yield Observation(labels[i], t, "tof", readings[j])
