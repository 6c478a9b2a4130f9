"""Bounded per-session observation queues.

One :class:`SessionQueue` buffers one client's not-yet-consumed
observations between ``offer`` (ingress) and the engine step that drains
them.  Capacity is bounded — the router's backpressure policies
(:data:`repro.stream.router.BACKPRESSURE_POLICIES`) decide what happens
when a queue is full; the queue itself only reports and obeys.

ToF readings and CSI snapshots are kept in separate FIFO lanes because
the engine consumes them differently: ``sense`` drains *every* due ToF
reading, ``classify`` consumes at most *one* due CSI snapshot per step
(extras stay queued for the following steps, preserving their order).

Every queue of a router shares one :class:`BacklogCount` and keeps it
current on each push, pop, drop, clear and restore, so the router's
total backlog is one attribute read rather than a sum over the fleet.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np


class BacklogCount:
    """The running number of observations queued across many queues."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class SessionQueue:
    """One client's bounded observation buffer (two FIFO lanes).

    ``backlog`` is the running count this queue adds its changes to; a
    queue built without one keeps a private count.
    """

    def __init__(self, capacity: int, backlog: Optional[BacklogCount] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._backlog = backlog if backlog is not None else BacklogCount()
        self.tof: Deque[Tuple[float, float]] = deque()
        self.csi: Deque[Tuple[float, Any]] = deque()

    def __len__(self) -> int:
        return len(self.tof) + len(self.csi)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def push_tof(self, time_s: float, tof_cycles: float) -> None:
        self.tof.append((time_s, tof_cycles))
        self._backlog.value += 1

    def push_csi(self, time_s: float, matrix: Any) -> None:
        self.csi.append((time_s, matrix))
        self._backlog.value += 1

    def drop_oldest(self) -> None:
        """Discard the single oldest queued observation (either lane)."""
        if self.tof and self.csi:
            if self.tof[0][0] <= self.csi[0][0]:
                self.tof.popleft()
            else:
                self.csi.popleft()
        elif self.tof:
            self.tof.popleft()
        elif self.csi:
            self.csi.popleft()
        else:
            return
        self._backlog.value -= 1

    def pop_tof_due(self, until_s: float) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Drain every ToF reading with ``time_s <= until_s``, in order."""
        if not self.tof or self.tof[0][0] > until_s:
            return None
        times: List[float] = []
        values: List[float] = []
        while self.tof and self.tof[0][0] <= until_s:
            t, v = self.tof.popleft()
            times.append(t)
            values.append(v)
        self._backlog.value -= len(times)
        return np.asarray(times, dtype=float), np.asarray(values, dtype=float)

    def pop_csi_due(self, until_s: float) -> Optional[Any]:
        """Consume the oldest CSI snapshot with ``time_s <= until_s``."""
        if self.csi and self.csi[0][0] <= until_s:
            self._backlog.value -= 1
            return self.csi.popleft()[1]
        return None

    def clear(self) -> None:
        self._backlog.value -= len(self)
        self.tof.clear()
        self.csi.clear()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "tof": list(self.tof),
            "csi": [(t, np.asarray(m)) for t, m in self.csi],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._backlog.value -= len(self)
        self.tof = deque((float(t), float(v)) for t, v in state["tof"])
        self.csi = deque((float(t), m) for t, m in state["csi"])
        self._backlog.value += len(self)
