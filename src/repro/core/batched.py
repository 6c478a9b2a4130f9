"""Arrays-of-clients backend for the Fig. 5 classifier.

The scalar :class:`repro.core.MobilityClassifier` models one client as one
Python object; serving N clients therefore costs N object graphs and N
interpreter round-trips per step, so per-client cost *rises* with N.  This
module restructures the same state machine as arrays over a client axis:

* :class:`BatchedMedianFilter` — the count-based ToF median filter as an
  ``(N, batch_size)`` buffer with per-client fill counts;
* :class:`BatchedToFTrendDetector` — the one streaming ToF trend
  pipeline: per-second medians, ``(N, window)`` trend ring buffers,
  per-row gap/invalidated counters.  Rows are classifier clients, the
  APs of a walk (neighbour headings) or the AoA extension's single row;
* :class:`BatchedMobilityClassifier` — the full sense→classify decision
  path over a client cohort, emitting one
  :class:`repro.core.hints.MobilityEstimate` per deciding client.

Equivalence contract
--------------------
Batched results are **bit-identical** to running N independent scalar
classifiers.  That is not approximately true — it is the design rule every
kernel here follows: per-client values are materialised as C-contiguous
rows and reduced along the last (contiguous) axis only, which NumPy
evaluates with the same pairwise summation as the scalar 1-D reductions
(reducing a transposed view would not).  Grouped operations (medians by
fill count, smoothing means by window occupancy) partition clients but
never mix values across them.  The scalar ``MobilityClassifier`` is a thin
N=1 view over this module, so there is one implementation to trust;
``tests/test_batched_classifier.py`` property-checks the cohort paths
against N scalar sensing sessions under degraded input, and
``tests/test_core_tof_trend.py`` checks :meth:`BatchedToFTrendDetector.push_block`
against per-reading :meth:`BatchedToFTrendDetector.push_one`.

Per-client telemetry (verdict events, gap counters) is emitted in client
index order within each batched call.  Relative order *across* clients may
differ from an N-session scalar engine schedule; each client's own event
stream is identical.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.hints import MobilityEstimate
from repro.core.similarity import batched_pair_similarity, prepare_csi_gains
from repro.core.tof_trend import ToFTrend, ToFTrendConfig
from repro.mobility.modes import Heading, MobilityMode
from repro.telemetry.recorder import NULL_RECORDER, Recorder
from repro.util.filters import MedianBatch, TimedMedianFilter

#: Classifier configuration lives in :mod:`repro.core.classifier`; imported
#: lazily there to avoid a module cycle (classifier imports this module).


class _RingBuffer:
    """Fixed-capacity FIFO windows for N clients as one ``(N, W)`` array.

    The vector twin of ``deque(maxlen=W)``: ``pos`` is the next write slot
    per client (equal to the oldest element once full), ``count`` how many
    slots hold data.  :meth:`ordered` materialises FIFO-ordered rows so
    reductions run over the contiguous last axis.
    """

    def __init__(self, n: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.values = np.zeros((n, capacity), dtype=float)
        self.count = np.zeros(n, dtype=np.int64)
        self.pos = np.zeros(n, dtype=np.int64)

    def push(self, rows: np.ndarray, values: np.ndarray) -> None:
        self.values[rows, self.pos[rows]] = values
        self.pos[rows] = (self.pos[rows] + 1) % self.capacity
        self.count[rows] = np.minimum(self.count[rows] + 1, self.capacity)

    def clear_rows(self, rows: np.ndarray) -> None:
        self.count[rows] = 0
        self.pos[rows] = 0

    def ordered(self, rows: np.ndarray) -> np.ndarray:
        """FIFO-ordered ``(len(rows), W)`` copy; first ``count`` columns valid."""
        p = self.pos[rows][:, None]
        c = self.count[rows][:, None]
        order = (p - c + np.arange(self.capacity)[None, :]) % self.capacity
        return self.values[rows[:, None], order]

    def means(self, rows: np.ndarray) -> np.ndarray:
        """Per-client mean of the occupied window slots.

        Bit-identical to ``np.mean`` of each client's FIFO list: clients
        are grouped by occupancy and each group reduces the contiguous
        leading columns of its ordered rows.
        """
        ordered = self.ordered(rows)
        counts = self.count[rows]
        out = np.empty(len(rows), dtype=float)
        for c in np.unique(counts):
            sel = counts == c
            out[sel] = ordered[sel][:, : int(c)].mean(axis=1)
        return out

    def row_values(self, i: int) -> List[float]:
        row = self.ordered(np.array([i]))[0]
        return [float(v) for v in row[: int(self.count[i])]]

    def state_dict(self) -> Dict[str, Any]:
        return {
            "values": self.values.copy(),
            "count": self.count.copy(),
            "pos": self.pos.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.values[...] = state["values"]
        self.count[...] = state["count"]
        self.pos[...] = state["pos"]


class BatchedMedianFilter:
    """N count-based median filters as one ``(N, batch_size)`` buffer.

    The vector twin of :class:`repro.util.filters.MedianFilter`: each
    client's batch closes after ``batch_size`` samples with the batch
    median.  :meth:`push_block` ingests one equal-length chunk per client
    and yields closure rounds grouped by fill count, so a lockstep cohort
    (every client fed the same number of readings per step) closes all its
    medians in one ``np.median(..., axis=1)`` per round.
    """

    def __init__(self, n: int, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.buffer = np.zeros((n, batch_size), dtype=float)
        self.fill = np.zeros(n, dtype=np.int64)

    def push_one(self, i: int, value: float) -> Optional[float]:
        """Scalar-path push for client ``i`` (mirrors ``MedianFilter.push``)."""
        fill = int(self.fill[i])
        self.buffer[i, fill] = value
        fill += 1
        if fill >= self.batch_size:
            median = float(np.median(self.buffer[i]))
            self.fill[i] = 0
            return median
        self.fill[i] = fill
        return None

    def push_block(
        self, rows: np.ndarray, block: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Feed ``block[j]`` (one chunk of readings) to client ``rows[j]``.

        Yields ``(row_ids, medians)`` per closure round in per-client
        arrival order.  Values and closure boundaries are bit-identical to
        calling :meth:`push_one` per reading.
        """
        size = self.batch_size
        k = block.shape[1]
        if k == 0:
            return
        fills = self.fill[rows]
        for f in np.unique(fills):
            sel = fills == f
            group = rows[sel]
            chunk = block[sel]
            total = int(f) + k
            n_close = total // size
            if n_close == 0:
                self.buffer[group[:, None], np.arange(int(f), total)[None, :]] = chunk
                self.fill[group] = total
                continue
            joined = np.concatenate([self.buffer[group][:, : int(f)], chunk], axis=1)
            for c in range(n_close):
                yield group, np.median(joined[:, c * size : (c + 1) * size], axis=1)
            remainder = total - n_close * size
            if remainder:
                self.buffer[group[:, None], np.arange(remainder)[None, :]] = joined[
                    :, n_close * size :
                ]
            self.fill[group] = remainder

    def reset_rows(self, rows: np.ndarray) -> None:
        self.fill[rows] = 0

    def state_dict(self) -> Dict[str, Any]:
        return {"buffer": self.buffer.copy(), "fill": self.fill.copy()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.buffer[...] = state["buffer"]
        self.fill[...] = state["fill"]


class BatchedToFTrendDetector:
    """N streaming ToF trend pipelines sharing array state.

    The paper's macro-mobility test (Sec. 2.5) for N independent rows:
    raw readings close per-second medians, medians feed ``(N, window)``
    trend rings, and the monotone trend test of
    :func:`repro.core.tof_trend.detect_trend` (net change + step
    tolerance) evaluates all freshly-closed windows in one shot.  The
    trend stays none until a row's window fills (the paper's detection
    delay).  Trends are stored as ``int8`` (``+1`` increasing, ``-1``
    decreasing, ``0`` none); :meth:`trend_of` maps back to the
    :class:`repro.core.tof_trend.ToFTrend` enum.

    Time-aware configs keep one :class:`TimedMedianFilter` per row
    (wall-clock anchoring and gap collapsing are per-sample, branch-heavy
    logic) while window state, trend evaluation and the degradation
    counters stay arrays.
    """

    def __init__(self, n: int, config: ToFTrendConfig = ToFTrendConfig()) -> None:
        self.config = config
        self.n = n
        self._median = BatchedMedianFilter(n, config.samples_per_median)
        self._timed: Optional[List[TimedMedianFilter]] = (
            [
                TimedMedianFilter(config.median_period_s, config.effective_min_median_samples)
                for _ in range(n)
            ]
            if config.time_aware
            else None
        )
        self._window = _RingBuffer(n, config.window_periods)
        #: Per-client trend: +1 increasing, -1 decreasing, 0 none.
        self.trend = np.zeros(n, dtype=np.int8)
        #: Degradation counters (time-aware mode), per client.
        self.n_gaps = np.zeros(n, dtype=np.int64)
        self.n_medians_discarded = np.zeros(n, dtype=np.int64)
        self.n_windows_invalidated = np.zeros(n, dtype=np.int64)
        #: Batches closed by the most recent time-aware push, per client.
        self.last_closed: List[list] = [[] for _ in range(n)]

    # ------------------------------------------------------------- queries

    @property
    def window_full(self) -> np.ndarray:
        return self.count == self.config.window_periods

    @property
    def count(self) -> np.ndarray:
        return self._window.count

    def trend_of(self, i: int) -> ToFTrend:
        value = int(self.trend[i])
        if value > 0:
            return ToFTrend.INCREASING
        if value < 0:
            return ToFTrend.DECREASING
        return ToFTrend.NONE

    def medians_of(self, i: int) -> List[float]:
        """Client ``i``'s trend window in FIFO order (oldest first)."""
        return self._window.row_values(i)

    # -------------------------------------------------------------- inputs

    def push_one(self, i: int, tof_cycles: float, time_s: Optional[float] = None) -> None:
        """One raw reading for row ``i``.

        With ``config.time_aware`` a timestamp is required: medians close
        on wall clock, and a sampling gap (a period with too few readings)
        clears the row's window until contiguous medians refill it.
        """
        if self.config.time_aware:
            if time_s is None:
                raise ValueError("time-aware trend detection needs time_s with every reading")
            assert self._timed is not None
            closed = self._timed[i].push(float(time_s), tof_cycles)
            self.last_closed[i] = closed
            row = np.array([i])
            for batch in closed:
                if batch.is_gap:
                    self.n_gaps[i] += 1
                    if batch.n_samples > 0:
                        self.n_medians_discarded[i] += 1
                    self._invalidate_rows(row)
                else:
                    self._ingest(row, np.array([batch.median], dtype=float))
            return
        median = self._median.push_one(i, tof_cycles)
        if median is not None:
            self._ingest(np.array([i]), np.array([median], dtype=float))

    def push_block(self, rows: np.ndarray, block: np.ndarray) -> None:
        """Equal-length, all-finite reading chunks for ``rows`` (count-based).

        The vectorised twin of calling :meth:`push_one` per reading; the
        time-aware configuration has no block path (callers loop
        :meth:`push_one`, which owns the per-sample wall-clock logic).
        """
        if self.config.time_aware:
            raise RuntimeError("time-aware detection ingests per reading; use push_one")
        for group, medians in self._median.push_block(rows, block):
            self._ingest(group, medians)

    # ------------------------------------------------------------ internals

    def _ingest(self, rows: np.ndarray, medians: np.ndarray) -> None:
        self._window.push(rows, medians)
        counts = self._window.count[rows]
        full = counts == self.config.window_periods
        if not np.all(full):
            self.trend[rows[~full]] = 0
        if np.any(full):
            full_rows = rows[full]
            ordered = self._window.ordered(full_rows)
            net = ordered[:, -1] - ordered[:, 0]
            steps = np.diff(ordered, axis=1)
            tol = self.config.step_tolerance_cycles
            min_net = self.config.min_net_cycles
            increasing = (net >= min_net) & np.all(steps >= -tol, axis=1)
            decreasing = (net <= -min_net) & np.all(steps <= tol, axis=1)
            self.trend[full_rows] = np.where(
                increasing, 1, np.where(decreasing, -1, 0)
            ).astype(np.int8)

    def _invalidate_rows(self, rows: np.ndarray) -> None:
        had = self._window.count[rows] > 0
        if np.any(had):
            self.n_windows_invalidated[rows[had]] += 1
        self._window.clear_rows(rows)
        self.trend[rows] = 0

    def reset_rows(self, rows: np.ndarray) -> None:
        """Forget stream state for ``rows`` (device-mobility episode ended).

        Pending partial medians drop too, so a stale half-batch from one
        episode never leaks into the next; the degradation counters
        persist.
        """
        self._median.reset_rows(rows)
        if self._timed is not None:
            for i in rows:
                self._timed[int(i)].reset()
                self.last_closed[int(i)] = []
        self._window.clear_rows(rows)
        self.trend[rows] = 0

    # ---------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, Any]:
        """Everything mutable, as plain values; config is *not* included
        (the owner reconstructs the detector from its own config record)."""
        return {
            "median": self._median.state_dict(),
            "timed": (
                [f.state_dict() for f in self._timed] if self._timed is not None else None
            ),
            "window": self._window.state_dict(),
            "trend": self.trend.copy(),
            "n_gaps": self.n_gaps.copy(),
            "n_medians_discarded": self.n_medians_discarded.copy(),
            "n_windows_invalidated": self.n_windows_invalidated.copy(),
            "last_closed": [
                [(b.start_s, b.end_s, b.median, b.n_samples) for b in closed]
                for closed in self.last_closed
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._median.load_state_dict(state["median"])
        timed_state = state["timed"]
        if (timed_state is None) != (self._timed is None):
            raise ValueError("checkpoint time-awareness disagrees with this config")
        if self._timed is not None and timed_state is not None:
            for f, s in zip(self._timed, timed_state):
                f.load_state_dict(s)
        self._window.load_state_dict(state["window"])
        self.trend[...] = state["trend"]
        self.n_gaps[...] = state["n_gaps"]
        self.n_medians_discarded[...] = state["n_medians_discarded"]
        self.n_windows_invalidated[...] = state["n_windows_invalidated"]
        self.last_closed = [
            [MedianBatch(*fields) for fields in closed] for closed in state["last_closed"]
        ]


class BatchedMobilityClassifier:
    """The Fig. 5 classifier over a client cohort, arrays-of-clients style.

    ``clients`` names the cohort (labels stamp per-client telemetry); all
    clients share one :class:`repro.core.classifier.ClassifierConfig`.
    :meth:`push_csi` ingests one CSI slab per grid step and returns one
    optional :class:`MobilityEstimate` per client; :meth:`push_tof` ingests
    each client's due ToF readings.  ``mask`` arguments select the clients
    to touch — a masked-out client's state is completely frozen, which is
    how quarantined/suspended cohort members keep bit-identical survivors
    (the PR-4 invariant, extended to batched runs).
    """

    #: Telemetry sink (bound by the owning session; shared no-op default).
    recorder: Recorder = NULL_RECORDER

    def __init__(
        self,
        clients: Union[int, Sequence[Optional[str]]],
        config: Optional["ClassifierConfig"] = None,
        record_history: bool = False,
    ) -> None:
        from repro.core.classifier import ClassifierConfig

        if config is None:
            config = ClassifierConfig()
        if isinstance(clients, int):
            clients = [f"client-{i}" for i in range(clients)]
        #: Per-client telemetry labels (mutable so an owning view can
        #: relabel without rebuilding state).
        self.client_labels: List[Optional[str]] = list(clients)
        n = len(self.client_labels)
        if n < 1:
            raise ValueError("cohort needs at least one client")
        self.n = n
        self.config = config
        self._detector = BatchedToFTrendDetector(n, config.tof)
        self._smooth = _RingBuffer(n, config.similarity_smoothing_window)
        self._prev: Optional[np.ndarray] = None  # (n, n_pairs, K) gain rows
        self._sample_shape: Optional[Tuple[int, ...]] = None
        self._has_prev = np.zeros(n, dtype=bool)
        self._last_time = np.full(n, np.nan)
        self._tof_active = np.zeros(n, dtype=bool)
        self._estimates: List[Optional[MobilityEstimate]] = [None] * n
        self._history: Optional[List[List[MobilityEstimate]]] = (
            [[] for _ in range(n)] if record_history else None
        )

    # ----------------------------------------------------------- properties

    @property
    def detector(self) -> BatchedToFTrendDetector:
        return self._detector

    @property
    def wants_tof(self) -> np.ndarray:
        """Per-client ToF gating (Fig. 5): read-only view, do not mutate."""
        return self._tof_active

    @property
    def estimates(self) -> List[Optional[MobilityEstimate]]:
        """Most recent decision per client (``None`` before the second CSI)."""
        return list(self._estimates)

    def history_of(self, i: int) -> List[MobilityEstimate]:
        if self._history is None:
            raise ValueError("cohort built with record_history=False")
        return list(self._history[i])

    # ---------------------------------------------------------------- inputs

    def push_tof(
        self,
        chunks: Sequence[Optional[Tuple[np.ndarray, np.ndarray]]],
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Feed each client's due ToF readings: ``chunks[i] = (times, values)``.

        Readings for clients whose ToF measurement is inactive (or masked
        out) are dropped unseen, like the scalar classifier ignoring
        ``push_tof`` while gating is off.  Count-based configs take the
        block path for equal-length all-finite chunks — one vectorised
        median closure per round — and fall back to the per-reading path
        (which also owns invalid-sample accounting) otherwise; time-aware
        configs are per-sample by nature.
        """
        live = self.recorder.enabled
        todo: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for i, chunk in enumerate(chunks):
            if chunk is None or not self._tof_active[i]:
                continue
            if mask is not None and not mask[i]:
                continue
            times, values = chunk
            if len(times):
                todo.append((i, np.asarray(times, dtype=float), np.asarray(values, dtype=float)))
        if not todo:
            return
        if self.config.tof.time_aware:
            for i, times, values in todo:
                for k in range(len(values)):
                    self._push_tof_one(i, float(times[k]), float(values[k]), live)
            return
        groups: dict = {}
        ragged: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for i, times, values in todo:
            if np.isfinite(values).all():
                groups.setdefault(len(values), ([], []))
                groups[len(values)][0].append(i)
                groups[len(values)][1].append(values)
            else:
                ragged.append((i, times, values))
        for length in sorted(groups):
            rows, blocks = groups[length]
            self._detector.push_block(np.asarray(rows), np.stack(blocks))
        for i, times, values in ragged:
            for k in range(len(values)):
                self._push_tof_one(i, float(times[k]), float(values[k]), live)

    def _push_tof_one(self, i: int, time_s: float, tof_cycles: float, live: bool) -> None:
        """One raw reading for one (ToF-active) client — the scalar path."""
        if not math.isfinite(tof_cycles):
            # A corrupted reading would poison the whole period's median.
            if live:
                client = self.client_labels[i]
                self.recorder.count("classifier.invalid_samples", client=client)
                self.recorder.event(
                    "sensing_gap",
                    time_s,
                    client=client,
                    source="tof",
                    reason="invalid_sample",
                )
            return
        detector = self._detector
        detector.push_one(i, tof_cycles, time_s=time_s)
        if live and detector.last_closed[i]:
            client = self.client_labels[i]
            for batch in detector.last_closed[i]:
                if batch.is_gap:
                    self.recorder.count("classifier.tof_gaps", client=client)
                    if batch.n_samples > 0:
                        self.recorder.count("tof.medians_discarded", client=client)
                    self.recorder.count("tof.windows_invalidated", client=client)
                    self.recorder.event(
                        "sensing_gap",
                        time_s,
                        client=client,
                        source="tof",
                        reason="sparse_period" if batch.n_samples else "empty_period",
                        gap_start_s=batch.start_s,
                        gap_s=batch.duration_s,
                        n_samples=batch.n_samples,
                    )
            detector.last_closed[i] = []

    def push_csi(
        self,
        time_s: float,
        samples: Any,
        mask: Optional[np.ndarray] = None,
    ) -> List[Optional[MobilityEstimate]]:
        """Feed one CSI sample per (unmasked) client; one decision slot each.

        ``samples`` is either a dense ``(N, ...)`` array (one sample shape
        for the whole cohort — the fast path) or a per-client sequence in
        which ``None`` marks a client with nothing to push this step.
        Non-finite samples are discarded and counted per client; with
        ``config.max_csi_gap_s`` set, a client whose sampling gap exceeds
        the limit restarts its similarity stream — both exactly as in the
        scalar classifier, including the ``sensing_gap`` trace events.
        """
        n = self.n
        results: List[Optional[MobilityEstimate]] = [None] * n
        if isinstance(samples, np.ndarray) and samples.ndim >= 2 and len(samples) == n:
            idx = np.arange(n) if mask is None else np.flatnonzero(mask)
            if len(idx) == 0:
                return results
            raw = samples[idx]
        else:
            take = [
                i
                for i in range(n)
                if samples[i] is not None and (mask is None or mask[i])
            ]
            if not take:
                return results
            idx = np.asarray(take)
            arrays = [np.asarray(samples[i]) for i in take]
            shape = arrays[0].shape
            for a in arrays[1:]:
                if a.shape != shape:
                    raise ValueError(f"CSI shapes disagree: {shape} vs {a.shape}")
            raw = np.stack(arrays)
        recorder = self.recorder
        live = recorder.enabled
        finite = np.isfinite(raw).reshape(len(idx), -1).all(axis=1)
        if live and not np.all(finite):
            for i in idx[~finite]:
                client = self.client_labels[int(i)]
                recorder.count("classifier.invalid_samples", client=client)
                recorder.event(
                    "sensing_gap", time_s, client=client, source="csi", reason="invalid_sample"
                )
        valid = idx[finite]
        if len(valid) == 0:
            return results
        gains = prepare_csi_gains(raw[finite])
        self._adopt_shape(raw.shape[1:], gains.shape[1:])
        max_gap = self.config.max_csi_gap_s
        if max_gap is not None:
            last = self._last_time[valid]
            gapped = valid[~np.isnan(last) & (time_s - last > max_gap)]
            if len(gapped):
                # Samples this far apart are not "consecutive" in the
                # Fig. 5 sense; restart those clients' similarity streams.
                if live:
                    for i in gapped:
                        client = self.client_labels[int(i)]
                        recorder.count("classifier.csi_gaps", client=client)
                        recorder.event(
                            "sensing_gap",
                            time_s,
                            client=client,
                            source="csi",
                            reason="sampling_gap",
                            gap_s=time_s - self._last_time[int(i)],
                        )
                self._has_prev[gapped] = False
                self._smooth.clear_rows(gapped)
        self._last_time[valid] = time_s
        assert self._prev is not None
        first = ~self._has_prev[valid]
        if np.any(first):
            self._prev[valid[first]] = gains[first]
            self._has_prev[valid[first]] = True
        compare = valid[~first]
        if len(compare) == 0:
            return results
        current = gains[~first]
        similarity = batched_pair_similarity(self._prev[compare], current)
        self._prev[compare] = current
        self._smooth.push(compare, similarity)
        smoothed = self._smooth.means(compare)
        self._decide(time_s, compare, smoothed, results, live)
        return results

    # ---------------------------------------------------------------- logic

    def _adopt_shape(
        self, sample_shape: Tuple[int, ...], row_shape: Tuple[int, ...]
    ) -> None:
        if self._sample_shape == sample_shape:
            return
        if self._sample_shape is not None and (
            np.any(self._has_prev) or np.any(self._smooth.count > 0)
        ):
            raise ValueError(
                f"CSI shapes disagree: {self._sample_shape} vs {sample_shape}"
            )
        self._sample_shape = sample_shape
        self._prev = np.zeros((self.n,) + tuple(row_shape), dtype=float)

    def _decide(
        self,
        time_s: float,
        clients: np.ndarray,
        smoothed: np.ndarray,
        results: List[Optional[MobilityEstimate]],
        live: bool,
    ) -> None:
        cfg = self.config
        static_m = smoothed > cfg.threshold_static
        env_m = ~static_m & (smoothed > cfg.threshold_environmental)
        device_m = ~(static_m | env_m)
        active = self._tof_active[clients]
        stopping = clients[(static_m | env_m) & active]
        if len(stopping):
            # Leaving device mobility stops ToF and resets the trend
            # window, exactly as the Fig. 5 flow chart prescribes.
            self._tof_active[stopping] = False
            self._detector.reset_rows(stopping)
        starting = clients[device_m & ~active]
        if len(starting):
            self._tof_active[starting] = True
            self._detector.reset_rows(starting)
        trend = self._detector.trend[clients]
        window_full = self._detector.count[clients] == cfg.tof.window_periods
        recorder = self.recorder
        history = self._history
        for j in range(len(clients)):
            i = int(clients[j])
            value = float(smoothed[j])
            if static_m[j]:
                estimate = MobilityEstimate(
                    time_s=time_s, mode=MobilityMode.STATIC, csi_similarity=value
                )
            elif env_m[j]:
                estimate = MobilityEstimate(
                    time_s=time_s, mode=MobilityMode.ENVIRONMENTAL, csi_similarity=value
                )
            elif trend[j] == 0:
                estimate = MobilityEstimate(
                    time_s=time_s,
                    mode=MobilityMode.MICRO,
                    csi_similarity=value,
                    tof_window_full=bool(window_full[j]),
                )
            else:
                estimate = MobilityEstimate(
                    time_s=time_s,
                    mode=MobilityMode.MACRO,
                    heading=Heading.AWAY if trend[j] > 0 else Heading.TOWARDS,
                    csi_similarity=value,
                    tof_window_full=True,
                )
            previous = self._estimates[i]
            self._estimates[i] = estimate
            if history is not None:
                history[i].append(estimate)
            results[i] = estimate
            if live:
                client = self.client_labels[i]
                recorder.count("classifier.decisions", client=client)
                recorder.count(f"classifier.mode.{estimate.mode.value}", client=client)
                recorder.event(
                    "classifier_verdict",
                    time_s,
                    client=client,
                    mode=estimate.mode.value,
                    heading=estimate.heading.value,
                    similarity=value,
                    tof_window_full=estimate.tof_window_full,
                )
                if previous is not None and previous.mode != estimate.mode:
                    recorder.event(
                        "hint_transition",
                        time_s,
                        client=client,
                        from_mode=previous.mode.value,
                        to_mode=estimate.mode.value,
                    )

    # ---------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, Any]:
        """Serializable snapshot of the cohort's full mutable state.

        Loading it into a classifier freshly built with the *same*
        ``clients`` and ``config`` resumes the stream bit-identically —
        the checkpoint/resume contract the streaming service relies on.
        Configuration is deliberately excluded: the owner records it
        (:mod:`repro.stream.checkpoint` versions the artifact) and
        reconstructs before loading.
        """
        return {
            "detector": self._detector.state_dict(),
            "smooth": self._smooth.state_dict(),
            "prev": None if self._prev is None else self._prev.copy(),
            "sample_shape": self._sample_shape,
            "has_prev": self._has_prev.copy(),
            "last_time": self._last_time.copy(),
            "tof_active": self._tof_active.copy(),
            "estimates": [
                None if e is None else e.to_dict() for e in self._estimates
            ],
            "history": (
                None
                if self._history is None
                else [[e.to_dict() for e in row] for row in self._history]
            ),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._detector.load_state_dict(state["detector"])
        self._smooth.load_state_dict(state["smooth"])
        self._sample_shape = (
            None if state["sample_shape"] is None else tuple(state["sample_shape"])
        )
        prev = state["prev"]
        self._prev = None if prev is None else np.array(prev, dtype=float)
        self._has_prev[...] = state["has_prev"]
        self._last_time[...] = state["last_time"]
        self._tof_active[...] = state["tof_active"]
        self._estimates = [
            None if e is None else MobilityEstimate.from_dict(e)
            for e in state["estimates"]
        ]
        history = state["history"]
        if history is not None:
            if self._history is None:
                raise ValueError(
                    "checkpoint has history but cohort built with record_history=False"
                )
            self._history = [
                [MobilityEstimate.from_dict(e) for e in row] for row in history
            ]

    def reset(self, rows: Optional[np.ndarray] = None) -> None:
        """Forget everything for ``rows`` (default: the whole cohort)."""
        if rows is None:
            rows = np.arange(self.n)
        self._has_prev[rows] = False
        self._last_time[rows] = np.nan
        self._smooth.clear_rows(rows)
        active = rows[self._tof_active[rows]]
        if len(active):
            self._tof_active[active] = False
        self._detector.reset_rows(rows)
        for i in rows:
            self._estimates[int(i)] = None
            if self._history is not None:
                self._history[int(i)].clear()
