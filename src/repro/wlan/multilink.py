"""Channels from one walking client to every AP on a floorplan."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.channel.config import ChannelConfig
from repro.channel.model import ChannelTrace, LinkChannel, MultiLinkChannel
from repro.mobility.environment import EnvironmentProcess
from repro.mobility.trajectory import TrajectoryTrace
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs
from repro.wlan.floorplan import Floorplan


@dataclass
class MultiApTraces:
    """Per-AP channel traces for one client trajectory, plus geometry."""

    floorplan: Floorplan
    trajectory: TrajectoryTrace
    traces: List[ChannelTrace]

    def __post_init__(self) -> None:
        if len(self.traces) != self.floorplan.n_aps:
            raise ValueError("one trace per AP required")

    @property
    def times(self) -> np.ndarray:
        return self.traces[0].times

    def rssi_matrix(self) -> np.ndarray:
        """(N, n_aps) RSSI of every AP at every sample."""
        return np.stack([t.rssi_dbm for t in self.traces], axis=1)

    def snr_matrix(self) -> np.ndarray:
        """(N, n_aps) SNR of every AP at every sample."""
        return np.stack([t.snr_db for t in self.traces], axis=1)

    def strongest_ap(self, index: int) -> int:
        """AP with the highest RSSI at sample ``index``."""
        return int(np.argmax([t.rssi_dbm[index] for t in self.traces]))

    def distances_to_ap(self, ap_index: int) -> np.ndarray:
        """True client-AP distances along the *trajectory* grid (fine)."""
        ap = self.floorplan.ap_positions[ap_index]
        return self.trajectory.distances_to(ap)


class MultiApChannel:
    """Evaluates independent link channels from a client to all APs."""

    def __init__(
        self,
        floorplan: Floorplan,
        config: ChannelConfig = ChannelConfig(),
        environment: Optional[EnvironmentProcess] = None,
        seed: SeedLike = None,
    ) -> None:
        self.floorplan = floorplan
        self.config = config
        self.environment = environment
        rng = ensure_rng(seed)
        seeds = spawn_rngs(rng, floorplan.n_aps)
        self._batch = MultiLinkChannel(
            [
                LinkChannel(ap, config, environment=environment, seed=s)
                for ap, s in zip(floorplan.ap_positions, seeds)
            ]
        )

    @property
    def links(self) -> List[LinkChannel]:
        return self._batch.links

    @property
    def recorder(self):
        """Telemetry sink of the underlying :class:`MultiLinkChannel`."""
        return self._batch.recorder

    @recorder.setter
    def recorder(self, recorder) -> None:
        self._batch.recorder = recorder

    def evaluate(
        self,
        trajectory: TrajectoryTrace,
        sample_interval_s: float = 0.1,
        include_h: bool = False,
        include_h_for: Optional[List[int]] = None,
    ) -> MultiApTraces:
        """Evaluate all AP links along the trajectory.

        Channel samples are taken every ``sample_interval_s`` (coarser than
        the trajectory grid); ``include_h_for`` lists AP indices that need
        full CSI (e.g. only the classifier's serving AP) to bound memory.

        All AP links run through one :meth:`MultiLinkChannel.evaluate_many`
        call; each link's trace is the one it would give alone.
        """
        stride = max(1, int(round(sample_interval_s / trajectory.dt)))
        times = trajectory.times[::stride]
        positions = trajectory.positions[::stride]
        traces = self._batch.evaluate_many(
            times,
            [positions] * len(self._batch),
            include_h=include_h,
            include_h_for=include_h_for,
        )
        return MultiApTraces(floorplan=self.floorplan, trajectory=trajectory, traces=traces)
