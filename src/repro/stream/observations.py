"""The observation event model of the streaming ingestion service.

One :class:`Observation` is one timestamped PHY-layer measurement for one
client — a CSI matrix snapshot or a raw ToF reading — exactly the stream
a serving AP's firmware hands up per associated station.  Sources
(:mod:`repro.stream.sources`, :mod:`repro.io.stream`) yield interleaved
observations across many clients; the :class:`repro.stream.StreamRouter`
queues them per session and feeds the classifier when the engine clock
reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

#: Observation kinds the router accepts.
KINDS: Tuple[str, ...] = ("csi", "tof")


@dataclass(frozen=True)
class Observation:
    """One timestamped measurement for one client.

    Attributes:
        client: the emitting client's label (must name a cohort member).
        time_s: capture timestamp on the service clock.
        kind: ``"csi"`` (``payload`` is a CSI matrix, e.g. ``(K, n_tx,
            n_rx)``) or ``"tof"`` (``payload`` is one raw ToF reading in
            cycles, as a float).
        payload: the measurement itself.
    """

    client: str
    time_s: float
    kind: str
    payload: Any

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
