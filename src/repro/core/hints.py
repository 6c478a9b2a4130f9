"""Mobility-hint records exchanged between the classifier and protocols.

:class:`MobilityEstimate` is one decision as protocols consume it;
:class:`EstimateLog` keeps a run of decisions as columns, the form a
long-lived service stores and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.modes import Heading, MobilityMode


@dataclass(frozen=True)
class MobilityEstimate:
    """One classification decision, as shared with the AP's protocols.

    Attributes:
        time_s: decision time.
        mode: estimated mobility mode.
        heading: towards/away for macro mobility, NONE otherwise.
        csi_similarity: the (smoothed) similarity value the decision used.
        tof_window_full: whether the ToF trend window had filled — protocols
            may treat early micro decisions (window still filling after a
            mobility onset) as provisional.
    """

    time_s: float
    mode: MobilityMode
    heading: Heading = Heading.NONE
    csi_similarity: Optional[float] = None
    tof_window_full: bool = False

    def __post_init__(self) -> None:
        if self.heading is not Heading.NONE and self.mode is not MobilityMode.MACRO:
            raise ValueError("heading is only meaningful for macro mobility")

    @property
    def is_device_mobility(self) -> bool:
        return self.mode.is_device_mobility

    @property
    def moving_away(self) -> bool:
        return self.mode == MobilityMode.MACRO and self.heading == Heading.AWAY

    @property
    def moving_towards(self) -> bool:
        return self.mode == MobilityMode.MACRO and self.heading == Heading.TOWARDS

    def to_dict(self) -> Dict[str, Any]:
        """Plain-value form for exports and comparisons."""
        return {
            "time_s": self.time_s,
            # ``_value_`` is what ``.value`` returns, without the descriptor.
            "mode": self.mode._value_,
            "heading": self.heading._value_,
            "csi_similarity": self.csi_similarity,
            "tof_window_full": self.tof_window_full,
        }


def safe_default_hint(time_s: float) -> MobilityEstimate:
    """The mobility-oblivious hint consumers fall back to when a client's
    sensing pipeline is quarantined (see :mod:`repro.sim.supervisor`).

    ``STATIC`` with ``tof_window_full=False`` is exactly the state of a
    pipeline that has not produced a settled verdict yet: no heading, no
    similarity, and the provisional flag set — so no mobility-triggered
    adaptation (eager handoffs, rate pinning, scheduler bias) fires on
    stale state, and the AP degrades to mobility-oblivious behaviour for
    that client instead of acting on the last pre-failure estimate.
    """
    return MobilityEstimate(
        time_s=time_s,
        mode=MobilityMode.STATIC,
        heading=Heading.NONE,
        csi_similarity=None,
        tof_window_full=False,
    )


#: :class:`EstimateLog` code of each mode and heading: its index here.
MODES: Tuple[MobilityMode, ...] = (
    MobilityMode.STATIC,
    MobilityMode.ENVIRONMENTAL,
    MobilityMode.MICRO,
    MobilityMode.MACRO,
)
HEADINGS: Tuple[Heading, ...] = (Heading.NONE, Heading.TOWARDS, Heading.AWAY)

#: Column name -> dtype of an :class:`EstimateLog`.
LOG_COLUMNS: Dict[str, Any] = {
    "member": np.int64,
    "time_s": np.float64,
    "mode": np.int8,
    "heading": np.int8,
    "similarity": np.float64,
    "has_similarity": np.bool_,
    "tof_window_full": np.bool_,
}


class EstimateLog:
    """A cohort's decisions, appended step by step, one column per field.

    Row ``k`` is one :class:`MobilityEstimate` of cohort member
    ``member[k]``: ``mode`` and ``heading`` hold indices into
    :data:`MODES` and :data:`HEADINGS`, and ``has_similarity`` marks the
    rows whose ``csi_similarity`` is set.  A step's decisions append as
    one slice write per column.  Rows whose objects the classifier already
    built are kept as they were delivered (:meth:`keep`); others are built
    only when :meth:`rows` is read, and kept, so each row is built at most
    once.
    """

    def __init__(self, n_members: int) -> None:
        self.n_members = n_members
        self.size = 0
        self._columns = {name: np.empty(64, dtype) for name, dtype in LOG_COLUMNS.items()}
        self._rows: List[List[MobilityEstimate]] = [[] for _ in range(n_members)]
        self._built = 0

    def column(self, name: str) -> np.ndarray:
        """The filled part of one column (a view)."""
        return self._columns[name][: self.size]

    def append(
        self,
        members: Any,
        time_s: Any,
        mode: Any,
        heading: Any,
        similarity: Any,
        tof_window_full: Any,
        has_similarity: Any = True,
    ) -> None:
        """Rows ``j``: member ``members[j]`` decided ``mode[j]``, ... (each
        argument an array, a sequence, or one value for every row)."""
        end = self.size + len(members)
        self._reserve(end)
        rows = slice(self.size, end)
        values = (members, time_s, mode, heading, similarity, has_similarity, tof_window_full)
        for column, value in zip(self._columns.values(), values):
            column[rows] = value
        self.size = end

    def append_estimates(
        self, members: Sequence[int], estimates: Sequence[MobilityEstimate]
    ) -> None:
        """Append estimate objects, ``estimates[j]`` for ``members[j]``."""
        self.append(
            members,
            [e.time_s for e in estimates],
            [MODES.index(e.mode) for e in estimates],
            [HEADINGS.index(e.heading) for e in estimates],
            [e.csi_similarity or 0.0 for e in estimates],
            [e.tof_window_full for e in estimates],
            [e.csi_similarity is not None for e in estimates],
        )

    def _reserve(self, size: int) -> None:
        capacity = len(self._columns["member"])
        if size <= capacity:
            return
        while capacity < size:
            capacity *= 2
        for name, old in self._columns.items():
            grown = np.empty(capacity, old.dtype)
            grown[: self.size] = old[: self.size]
            self._columns[name] = grown

    def rows(self) -> List[List[MobilityEstimate]]:
        """Each member's estimates in append order (lists the log keeps
        extending; copy before mutating)."""
        out = self._rows
        # In chunks, so the Python lists read out of the columns stay small.
        for start in range(self._built, self.size, 4096):
            new = slice(start, min(start + 4096, self.size))
            for member, time_s, mode, heading, similarity, has, full in zip(
                *(column[new].tolist() for column in self._columns.values())
            ):
                out[member].append(
                    MobilityEstimate(
                        time_s=time_s,
                        mode=MODES[mode],
                        heading=HEADINGS[heading],
                        csi_similarity=similarity if has else None,
                        tof_window_full=full,
                    )
                )
        self._built = self.size
        return out

    def keep(self, start: int, delivered: Sequence[Tuple[int, MobilityEstimate]]) -> None:
        """Keep the objects of the rows appended since ``start`` as their
        built form: ``delivered`` pairs each member with its estimate, in
        row order.  Only when every earlier row is built; otherwise
        :meth:`rows` builds them when read."""
        if self._built == start and start + len(delivered) == self.size:
            rows = self._rows
            for i, estimate in delivered:
                rows[i].append(estimate)
            self._built = self.size

    def drop_members(self, members: np.ndarray) -> None:
        """Forget every row of ``members``; the other rows keep their order."""
        keep = ~np.isin(self.column("member"), members)
        for values in self._columns.values():
            kept = values[: self.size][keep]
            values[: len(kept)] = kept
        self._built = int(np.count_nonzero(keep[: self._built]))
        self.size = int(np.count_nonzero(keep))
        for i in members:
            self._rows[int(i)] = []

    def clear(self) -> None:
        self.size = 0
        self._rows = [[] for _ in range(self.n_members)]
        self._built = 0

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: self.column(name).copy() for name in LOG_COLUMNS}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Adopt a :meth:`state_dict`, checking every code is in range."""
        columns = {name: np.asarray(state[name]) for name in LOG_COLUMNS}
        size = len(columns["member"])
        for name, column in columns.items():
            if column.shape != (size,) or column.dtype != LOG_COLUMNS[name]:
                raise ValueError(
                    f"estimate log column {name!r} is {column.dtype} {column.shape}"
                )
        if size:
            member, mode, heading = columns["member"], columns["mode"], columns["heading"]
            if (
                member.min() < 0
                or member.max() >= self.n_members
                or mode.min() < 0
                or mode.max() >= len(MODES)
                or heading.min() < 0
                or heading.max() >= len(HEADINGS)
                or np.any((heading != 0) & (mode != MODES.index(MobilityMode.MACRO)))
            ):
                raise ValueError("estimate log holds a member, mode or heading out of range")
        self.clear()
        self._reserve(size)
        for name, column in columns.items():
            self._columns[name][:size] = column
        self.size = size
