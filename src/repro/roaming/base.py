"""Roaming scheme interface and the observables each scheme may use.

The simulator exposes observables through :class:`RoamingContext`; each
scheme reads only what its real counterpart could:

* the **default client** sees the serving AP's RSSI, and all APs' RSSI
  only after paying for a scan;
* the **sensor-hint client** [1] additionally sees a binary "device is
  moving" accelerometer hint;
* the **controller** (the paper's scheme) sees the serving AP's mobility
  estimate (mode + heading) and, for roaming preparation, per-neighbor-AP
  RSSI and ToF-derived headings measured *by the infrastructure* — no
  client cost.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.batched import BatchedToFTrendDetector
from repro.core.hints import MobilityEstimate
from repro.core.tof_trend import ToFTrendConfig
from repro.mobility.modes import Heading


@dataclass
class HandoffEvent:
    """One roam, for reporting."""

    time_s: float
    from_ap: int
    to_ap: int
    forced_by_controller: bool


@dataclass
class RoamingDecision:
    """What a scheme wants to do this step."""

    target_ap: Optional[int] = None  # roam if not None and != current
    forced: bool = False  # controller-initiated (cheaper 802.11r-style roam)

    @property
    def wants_roam(self) -> bool:
        return self.target_ap is not None


class RoamingContext(abc.ABC):
    """Observables offered to a scheme at one decision step."""

    @property
    @abc.abstractmethod
    def now_s(self) -> float: ...

    @property
    @abc.abstractmethod
    def current_ap(self) -> int: ...

    @property
    @abc.abstractmethod
    def n_aps(self) -> int: ...

    @abc.abstractmethod
    def current_rssi_dbm(self) -> float:
        """Serving AP RSSI (always available from received frames)."""

    @abc.abstractmethod
    def scan(self) -> Dict[int, float]:
        """All APs' RSSI — charges the client the scan outage."""

    # -- sensor-hint observables ------------------------------------------

    @abc.abstractmethod
    def accelerometer_moving(self) -> bool:
        """Binary device-mobility hint (ground-truth accelerometer, [1])."""

    # -- controller observables (paper scheme) ----------------------------

    @abc.abstractmethod
    def mobility_estimate(self) -> Optional[MobilityEstimate]:
        """Serving AP's classifier output."""

    @abc.abstractmethod
    def neighbor_report(self) -> Dict[int, "NeighborObservation"]:
        """Infrastructure-side RSSI + heading per neighbor AP."""


@dataclass(frozen=True)
class NeighborObservation:
    """What a neighbor AP reports to the controller about the client.

    The paper's controller instructs neighbours to "compute the client's
    distance, RSSI and heading information towards themselves"
    (Section 3.1); ``distance_m`` is the ToF-ranging estimate and may be
    ``None`` before the first ranging batch completes.
    """

    rssi_dbm: float
    heading: Heading  # client heading relative to THIS AP (from its ToF)
    distance_m: Optional[float] = None


class NeighborToF:
    """Every AP's ToF trend on one client, measured by the infrastructure.

    ``readings[ap]`` holds AP ``ap``'s raw ToF readings (clock cycles)
    taken at ``times``; one :class:`BatchedToFTrendDetector` row per AP
    turns them into the headings of :attr:`NeighborObservation.heading`.
    """

    def __init__(
        self, times: np.ndarray, readings: Sequence[np.ndarray], config: ToFTrendConfig
    ) -> None:
        self.times = np.asarray(times, dtype=float)
        #: ``(n_aps, len(times))`` raw readings.
        self.readings = np.asarray(readings, dtype=float)
        self.detector = BatchedToFTrendDetector(len(self.readings), config)
        self._cursor = 0

    def advance(self, until_s: float) -> range:
        """Feed every AP its readings timed at or before ``until_s``.

        Returns the indices of the readings fed by this call.
        """
        start = self._cursor
        stop = max(start, int(np.searchsorted(self.times, until_s, side="right")))
        if stop > start:
            detector = self.detector
            if detector.config.time_aware:
                # Wall-clock medians need each reading's timestamp, which
                # only the per-reading path accepts.
                for ap in range(detector.n):
                    for k in range(start, stop):
                        detector.push_one(
                            ap, float(self.readings[ap, k]), time_s=float(self.times[k])
                        )
            else:
                detector.push_block(np.arange(detector.n), self.readings[:, start:stop])
        self._cursor = stop
        return range(start, stop)

    def heading(self, ap: int) -> Heading:
        """Client heading relative to AP ``ap`` from its ToF trend."""
        return self.detector.trend_of(ap).heading


class RoamingScheme(abc.ABC):
    """A roaming decision policy."""

    name: str = "roaming"

    @abc.abstractmethod
    def decide(self, ctx: RoamingContext) -> RoamingDecision:
        """Inspect observables; optionally request a roam."""

    def reset(self) -> None:
        """Forget state between runs."""
