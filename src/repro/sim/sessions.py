"""The sensing session: pre-sampled CSI/ToF streams fed to the classifier.

Concrete protocol sessions (the integrated AP stack, the multi-client
scheduler, saturated rate-control links) live next to the machinery they
configure in ``repro.wlan`` and ``repro.rate``; this module holds the one
generic sensing pipeline that the experiment harnesses, examples and the
streaming router share.  A single link runs as a one-member cohort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.hints import EstimateLog, safe_default_hint
from repro.sim.engine import Session, SessionError, StepClock, TimeGrid
from repro.telemetry.recorder import Recorder

if TYPE_CHECKING:  # import cycle guard: faults imports repro.sim
    from repro.core.batched import BatchedMobilityClassifier
    from repro.faults import FaultPlan
    from repro.faults.chaos import SessionCrashFault
    from repro.sim.supervisor import FailureRecord


class BatchedSensingSession(Session):
    """A client cohort's sensing pipeline as one engine session.

    The engine grid runs at the CSI cadence.  Each step, ``sense`` pushes
    every member's ToF readings up to the step instant and ``classify``
    then pushes the step's CSI samples: one ToF ingest and one CSI slab
    push through a :class:`repro.core.batched.BatchedMobilityClassifier`
    per step for the whole cohort, while each member keeps its own state
    inside the batched arrays.  Estimates are collected per member in
    arrival order — exactly the stream a serving AP would emit as
    mobility hints — in one columnar :class:`repro.core.hints.EstimateLog`;
    rows restored from a checkpoint become objects again only when
    :attr:`estimates_by_client` or :meth:`finish` reads them.  A single
    link is a one-member cohort: name the
    cohort ``client`` after its member, and run results, failure records
    and telemetry all carry that one label.  Per-member results do not
    depend on the cohort a member runs in — property-tested in
    ``tests/test_batched_classifier.py``.

    Supervision operates per member: the engine routes member-attributed
    failures (see ``member_faults``) to the supervisor, and the
    supervisor's verdict comes back through :meth:`on_quarantine` /
    :meth:`on_suspend` / :meth:`on_resume`, which *mask* the member out
    of the batch rather than removing it.  A masked member's ToF cursor
    and classifier rows freeze, so survivors never see the difference and
    a resumed member drains its sensing backlog in timestamp order.  A
    failure that cannot be pinned on one member (the classifier raising,
    a ``start`` failure) quarantines the whole cohort, and every member
    still running is degraded the way a quarantined member is.

    Inputs are per member: ``csi_by_client[i]`` is client ``i``'s per-step
    sample sequence, ``tof_times_by_client[i]`` /
    ``tof_readings_by_client[i]`` its ToF stream.  A ``None`` CSI entry is
    a step without traffic: the member classifies nothing that step, and
    a time-aware classifier sees the resulting sampling gap.  ``faults``
    maps member labels to :class:`repro.faults.FaultPlan` degradations
    applied to both streams at :meth:`start` (deterministically, per the
    plan seed; the injected fault counts surface through the bound
    telemetry recorder); ``member_faults`` maps member labels to
    :class:`repro.faults.SessionCrashFault` chaos schedules (engine step
    phases only — cohort ``start``/``finish`` failures are cohort-wide by
    construction).

    ``on_estimate`` receives ``(client, time_s, estimate)``.
    """

    is_cohort = True

    def __init__(
        self,
        classifier: "BatchedMobilityClassifier",
        csi_by_client: Sequence[Any],
        tof_times_by_client: Optional[Sequence[Sequence[float]]] = None,
        tof_readings_by_client: Optional[Sequence[Sequence[float]]] = None,
        client: str = "cohort",
        on_estimate: Optional[Callable[[str, float, Any], None]] = None,
        faults: Optional[Mapping[str, "FaultPlan"]] = None,
        member_faults: Optional[Mapping[str, "SessionCrashFault"]] = None,
    ) -> None:
        labels = [label if label is not None else f"client-{i}"
                  for i, label in enumerate(classifier.client_labels)]
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("cohort member labels must be unique")
        if len(csi_by_client) != n:
            raise ValueError(
                f"{len(csi_by_client)} CSI streams cannot serve {n} cohort members"
            )
        if (tof_times_by_client is None) != (tof_readings_by_client is None):
            raise ValueError("ToF times and readings must pair up")
        if tof_times_by_client is None:
            tof_times_by_client = [() for _ in range(n)]
            tof_readings_by_client = [() for _ in range(n)]
        if len(tof_times_by_client) != n or len(tof_readings_by_client) != n:
            raise ValueError("need one ToF stream per cohort member")
        for times, readings in zip(tof_times_by_client, tof_readings_by_client):
            if len(times) != len(readings):
                raise ValueError("ToF times and readings must pair up")
        if member_faults:
            from repro.faults.chaos import SessionCrashFault  # noqa: F811 - runtime import

            for label, fault in member_faults.items():
                if label not in labels:
                    raise ValueError(f"member fault targets unknown client {label!r}")
                if fault.phase in ("start", "finish"):
                    raise ValueError(
                        "cohort member faults support engine step phases only; "
                        "start/finish failures are cohort-wide"
                    )
        self.client = client
        self.classifier = classifier
        self._labels = labels
        self._index_of = {label: i for i, label in enumerate(labels)}
        self._csi_by_client = list(csi_by_client)
        self._tof_times = [times for times in tof_times_by_client]
        self._tof_readings = [readings for readings in tof_readings_by_client]
        self._tof_cursor = np.zeros(n, dtype=np.int64)
        self._tof_due: List[np.ndarray] = []
        self._on_estimate = on_estimate
        self._faults = dict(faults) if faults else {}
        for label in self._faults:
            if label not in self._index_of:
                raise ValueError(f"fault plan targets unknown client {label!r}")
        self._member_faults = dict(member_faults) if member_faults else {}
        self._masked = np.zeros(n, dtype=bool)
        self._pending_mask: set = set()
        self._pending_errors: List[SessionError] = []
        self._failures: Dict[str, "FailureRecord"] = {}
        self._history = EstimateLog(n)
        classifier.log = self._history
        self._dense_csi: Optional[np.ndarray] = None
        self._missing: Optional[np.ndarray] = None

    # ----------------------------------------------------------- cohort API

    @property
    def clients(self) -> Tuple[str, ...]:
        return tuple(self._labels)

    @property
    def estimates_by_client(self) -> List[List[Any]]:
        """Each member's estimates so far, in arrival order."""
        return self._history.rows()

    def clear_history(self) -> None:
        """Forget the collected estimates (the classifier's own history
        too); the run state that decides future estimates is untouched."""
        self._history.clear()
        self.classifier.clear_history()

    @property
    def n_active_clients(self) -> int:
        return int(len(self._labels) - np.count_nonzero(self._masked))

    def bind_recorder(self, recorder: Recorder) -> None:
        super().bind_recorder(recorder)
        self.classifier.recorder = recorder
        self.classifier.client_labels[:] = self._labels

    # ------------------------------------------------------------ lifecycle

    def start(self, grid: TimeGrid) -> None:
        n = len(self._labels)
        for i, label in enumerate(self._labels):
            if len(self._csi_by_client[i]) != len(grid):
                raise ValueError(
                    f"{len(self._csi_by_client[i])} CSI samples cannot cover a "
                    f"{len(grid)}-step grid (client {label!r})"
                )
            plan = self._faults.get(label)
            if plan is not None:
                self._tof_times[i], self._tof_readings[i] = plan.apply_stream(
                    self._tof_times[i], self._tof_readings[i], label="tof"
                )
                self._csi_by_client[i] = plan.apply_grid(self._csi_by_client[i], label="csi")
                if self.recorder.enabled:
                    for name, count in plan.stats.items():
                        if count:
                            self.recorder.count(name, count, client=label)
        for fault in self._member_faults.values():
            fault.arm(len(grid))
        # Per-member ToF arrays plus the per-step "due" boundary, so each
        # sense phase slices one contiguous chunk per member instead of
        # walking readings one by one.
        self._tof_due = []
        for i in range(n):
            times = np.asarray(self._tof_times[i], dtype=float)
            self._tof_times[i] = times
            self._tof_readings[i] = np.asarray(self._tof_readings[i], dtype=float)
            self._tof_due.append(np.searchsorted(times, grid.times, side="right"))
        self._build_dense_csi(len(grid))

    def _build_dense_csi(self, n_steps: int) -> None:
        """Pack per-member sample lists into one ``(n_steps, N, ...)`` slab.

        ``None`` entries (steps without traffic) set the ``missing`` mask
        and leave zeros in the slab — a missing slot is masked out of the
        batched push, so it never reaches the classifier and the
        missing-vs-invalid telemetry distinction survives batching.
        """
        n = len(self._labels)
        sample_shape: Optional[Tuple[int, ...]] = None
        dtype = None
        arrays: List[List[Optional[np.ndarray]]] = []
        for i in range(n):
            row: List[Optional[np.ndarray]] = []
            for sample in self._csi_by_client[i]:
                if sample is None:
                    row.append(None)
                    continue
                sample = np.asarray(sample)
                if sample_shape is None:
                    sample_shape = sample.shape
                elif sample.shape != sample_shape:
                    raise ValueError(
                        f"CSI shapes disagree: {sample_shape} vs {sample.shape}"
                    )
                dtype = sample.dtype if dtype is None else np.promote_types(dtype, sample.dtype)
                row.append(sample)
            arrays.append(row)
        self._missing = np.zeros((n_steps, n), dtype=bool)
        if sample_shape is None:  # every step of every member is missing
            self._dense_csi = np.zeros((n_steps, n, 1), dtype=float)
            self._missing[:] = True
            return
        self._dense_csi = np.zeros((n_steps, n) + sample_shape, dtype=dtype)
        for i in range(n):
            for step, sample in enumerate(arrays[i]):
                if sample is None:
                    self._missing[step, i] = True
                else:
                    self._dense_csi[step, i] = sample

    # ------------------------------------------------------- chaos plumbing

    def _due_failures(self, phase: str, clock: StepClock) -> List[SessionError]:
        """Collect this phase's injected member failures (work is excluded
        for those members; the first error raises after the batch work)."""
        errors = list(self._pending_errors)
        self._pending_errors = []
        if self._member_faults:
            for label, fault in self._member_faults.items():
                i = self._index_of[label]
                if self._masked[i] or i in self._pending_mask:
                    continue
                if fault.should_crash(phase, clock.index):
                    try:
                        fault.fire()
                    except Exception as exc:  # noqa: BLE001 - injected on purpose
                        error = SessionError(label, phase, clock.start_s, exc)
                        # Chain explicitly (the error is built, not raised,
                        # here) so FailureRecords name the injected cause.
                        error.__cause__ = exc
                        errors.append(error)
                        self._pending_mask.add(i)
        return errors

    def _raise_failures(self, errors: List[SessionError]) -> None:
        if errors:
            self._pending_errors = errors[1:]
            raise errors[0]

    def _participating(self) -> np.ndarray:
        """Boolean member mask for this phase call's batch work."""
        mask = ~self._masked
        if self._pending_mask:
            mask = mask.copy()
            mask[list(self._pending_mask)] = False
        return mask

    # --------------------------------------------------------------- phases

    def sense(self, clock: StepClock) -> None:
        errors = self._due_failures("sense", clock)
        mask = self._participating()
        chunks: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(self._labels)
        for i in np.flatnonzero(mask):
            due = int(self._tof_due[i][clock.index])
            cursor = int(self._tof_cursor[i])
            if due > cursor:
                chunks[i] = (
                    self._tof_times[i][cursor:due],
                    self._tof_readings[i][cursor:due],
                )
                self._tof_cursor[i] = due
        self.classifier.push_tof(chunks, mask=mask)
        self._raise_failures(errors)

    def classify(self, clock: StepClock) -> None:
        errors = self._due_failures("classify", clock)
        mask = self._participating()
        assert self._missing is not None and self._dense_csi is not None
        missing = self._missing[clock.index]
        if self.recorder.enabled:
            for i in np.flatnonzero(mask & missing):
                self.recorder.count("sensing.csi_missing", client=self._labels[i])
        push_mask = mask & ~missing
        if np.any(push_mask):
            start = self._history.size
            results = self.classifier.push_csi(
                clock.start_s, self._dense_csi[clock.index], mask=push_mask
            )
            self._deliver(clock.start_s, results, start)
        self._raise_failures(errors)

    def _deliver(self, time_s: float, results: List[Any], start: int) -> None:
        """Keep a step's estimates as the built form of the log rows it
        appended from ``start`` on, and hand them to the consumer."""
        delivered = [(i, e) for i, e in enumerate(results) if e is not None]
        self._history.keep(start, delivered)
        if self._on_estimate is not None:
            for i, estimate in delivered:
                self._on_estimate(self._labels[i], time_s, estimate)

    def adapt(self, clock: StepClock) -> None:
        self._raise_failures(self._due_failures("adapt", clock))

    def transmit(self, clock: StepClock) -> None:
        self._raise_failures(self._due_failures("transmit", clock))

    def finish(self) -> Dict[str, Any]:
        """Per-member results: the estimate stream, or the member's
        :class:`repro.sim.FailureRecord` if it was quarantined."""
        rows = self.estimates_by_client
        results: Dict[str, Any] = {}
        for i, label in enumerate(self._labels):
            record = self._failures.get(label)
            results[label] = record if record is not None else rows[i]
        return results

    # ---------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the cohort's run state (classifier + supervision masks).

        Covers everything :meth:`load_state_dict` needs to resume a
        *freshly constructed* session bit-identically: the batched
        classifier's full state, per-member ToF cursors, masks,
        collected estimates and failure records.  Inputs (CSI slabs,
        ToF streams) are construction arguments, not state — the caller
        re-supplies them.
        """
        return {
            "classifier": self.classifier.state_dict(),
            "tof_cursor": self._tof_cursor.copy(),
            "masked": self._masked.copy(),
            "pending_mask": sorted(self._pending_mask),
            "failures": {label: r.to_dict() for label, r in self._failures.items()},
            "history": self._history.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from repro.sim.supervisor import FailureRecord

        self.classifier.load_state_dict(state["classifier"])
        self._tof_cursor[...] = state["tof_cursor"]
        self._masked[...] = state["masked"]
        self._pending_mask = set(int(i) for i in state["pending_mask"])
        self._failures = {
            label: FailureRecord(**record)
            for label, record in state["failures"].items()
        }
        self._history.load_state_dict(state["history"])

    # ---------------------------------------------------------- supervision

    def on_quarantine(self, time_s: float, record: "FailureRecord") -> None:
        """Degrade safely: mask the member out and hand its consumer a
        mobility-oblivious hint.

        A quarantined pipeline must not leave its consumer acting on the
        last pre-failure estimate (a stale MACRO/AWAY hint keeps biasing
        schedulers and roaming forever), so the ``on_estimate`` consumer
        receives one :func:`repro.core.hints.safe_default_hint` at the
        quarantine instant, the member's batch rows freeze, and its run
        result becomes the :class:`repro.sim.FailureRecord`.  Collected
        estimates are left untouched as the partial truth.  A record
        naming the cohort itself (a failure no member owns) degrades
        every member not already quarantined, each with that record.
        """
        member = self._index_of.get(record.client)
        for i in range(len(self._labels)) if member is None else (member,):
            label = self._labels[i]
            if label in self._failures:
                continue
            self._masked[i] = True
            self._pending_mask.discard(i)
            self._failures[label] = record
            if self._on_estimate is not None:
                self._on_estimate(label, time_s, safe_default_hint(time_s))

    def on_suspend(self, client: str, time_s: float, resume_s: float) -> None:
        i = self._index_of.get(client)
        if i is not None:
            self._masked[i] = True
            self._pending_mask.discard(i)

    def on_resume(self, client: str, time_s: float) -> None:
        i = self._index_of.get(client)
        if i is not None and client not in self._failures:
            self._masked[i] = False
