"""The mobility classifier — Figure 5 of the paper.

The AP samples CSI from the client's existing traffic (ACKs of data packets)
every ``csi_sampling_period_s`` and keeps a moving average of the similarity
between consecutive CSI samples.  Two empirically chosen thresholds split
the similarity scale:

* ``similarity > Thr_sta  (0.98)``  -> static
* ``Thr_env < similarity <= Thr_sta (0.70..0.98)`` -> environmental mobility
* ``similarity <= Thr_env (0.70)``  -> device mobility

Only while the CSI indicates device mobility does the AP spend airtime on
ToF measurement (20 ms probing).  The ToF trend detector then splits device
mobility into micro vs macro, and gives the macro heading.  Leaving device
mobility stops ToF measurement and resets the trend window, exactly as the
Fig. 5 flow chart prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.batched import BatchedMobilityClassifier
from repro.core.hints import MobilityEstimate
from repro.core.tof_trend import ToFTrendConfig
from repro.telemetry.recorder import NULL_RECORDER, Recorder


@dataclass(frozen=True)
class ClassifierConfig:
    """Thresholds and sampling parameters (paper Sections 2.3 and 2.5)."""

    #: CSI sampling period; the paper settles on 500 ms (Fig. 6(a)).
    csi_sampling_period_s: float = 0.5
    #: Above this similarity the channel is stable: static client (Thr_sta).
    threshold_static: float = 0.98
    #: Below this similarity the device itself is moving (Thr_env).
    threshold_environmental: float = 0.70
    #: Moving-average window (in samples) over the similarity stream.
    similarity_smoothing_window: int = 3
    #: Largest tolerated spacing between consecutive CSI samples before the
    #: similarity comparison is discarded: correlating samples seconds apart
    #: as if consecutive turns a traffic lull into a phantom channel change.
    #: ``None`` (default) keeps the historical cadence-blind behaviour.
    max_csi_gap_s: Optional[float] = None
    tof: ToFTrendConfig = field(default_factory=ToFTrendConfig)

    def __post_init__(self) -> None:
        if self.csi_sampling_period_s <= 0:
            raise ValueError("CSI sampling period must be positive")
        if not -1.0 <= self.threshold_environmental < self.threshold_static <= 1.0:
            raise ValueError("thresholds must satisfy -1 <= Thr_env < Thr_sta <= 1")
        if self.similarity_smoothing_window < 1:
            raise ValueError("smoothing window must be >= 1")
        if self.max_csi_gap_s is not None and self.max_csi_gap_s <= 0:
            raise ValueError("max CSI gap must be positive (or None to disable)")


class MobilityClassifier:
    """Streaming implementation of the Fig. 5 classification design.

    A thin N=1 view over :class:`repro.core.batched.BatchedMobilityClassifier`
    — the batched backend is the *only* implementation of the decision
    logic, and this class just adapts one client's slice of it to the
    historical scalar API (single sample in, single estimate out).
    """

    #: Telemetry sink (bound by the owning session; shared no-op default)
    #: and the client label stamped on emitted verdict events.
    recorder: Recorder = NULL_RECORDER
    telemetry_client: Optional[str] = None

    def __init__(self, config: ClassifierConfig = ClassifierConfig()) -> None:
        self.config = config
        self._batch = BatchedMobilityClassifier([None], config, record_history=True)

    def _bind(self) -> "BatchedMobilityClassifier":
        """Propagate the (assignable) recorder/label attributes downward."""
        batch = self._batch
        batch.recorder = self.recorder
        batch.client_labels[0] = self.telemetry_client
        return batch

    # ----------------------------------------------------------- properties

    @property
    def estimate(self) -> Optional[MobilityEstimate]:
        """Most recent decision (``None`` before the second CSI sample)."""
        return self._batch._estimates[0]

    @property
    def history(self) -> List[MobilityEstimate]:
        """All decisions made so far (one per CSI sample after the first)."""
        return self._batch.history_of(0)

    @property
    def wants_tof(self) -> bool:
        """Whether the AP should currently be probing ToF (Fig. 5 gating)."""
        return bool(self._batch._tof_active[0])

    # ---------------------------------------------------------------- inputs

    def push_tof(self, time_s: float, tof_cycles: float) -> None:
        """Feed one raw ToF reading (every ~20 ms while ToF is active).

        Readings pushed while ToF measurement is inactive are ignored — the
        real system would simply not schedule the measurement exchange.
        With a time-aware :class:`ToFTrendConfig` the timestamp drives
        wall-clock median aggregation and gap invalidation; the default
        count-based detector ignores it.
        """
        if not self._batch._tof_active[0]:
            return
        batch = self._bind()
        batch._push_tof_one(0, time_s, tof_cycles, self.recorder.enabled)

    def push_csi(self, time_s: float, csi: np.ndarray) -> Optional[MobilityEstimate]:
        """Feed one CSI sample; returns the new decision (if one was made).

        Non-finite samples (a corrupted CSI report) are discarded and
        counted; with ``config.max_csi_gap_s`` set, a sampling gap larger
        than the limit restarts the similarity stream instead of comparing
        across the gap — both surface as ``sensing_gap`` trace events.
        """
        return self._bind().push_csi(time_s, [csi])[0]

    def reset(self) -> None:
        """Forget everything (e.g. after the client roams to another AP)."""
        self._batch.reset()
