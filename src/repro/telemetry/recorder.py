"""The recorder interface every instrumentation point talks to.

Design rule: the *disabled* path must cost one attribute call per hook.
:class:`Recorder` is therefore both the interface and the no-op
implementation — every hook is a ``pass`` — and hot loops additionally
gate formatting/stopwatch work behind ``recorder.enabled`` so a run with
the shared :data:`NULL_RECORDER` never calls ``perf_counter`` or builds
event payloads.  Telemetry only ever *observes*: no hook touches RNG
state or simulation values, which is what keeps seeded runs bit-identical
with recording on or off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.telemetry.export import PathLike
from repro.telemetry.profiler import RunProfile
from repro.telemetry.tracer import TraceEvent, Tracer


class Recorder:
    """No-op recorder base class; also the instrumentation interface.

    Hooks, in the order a run exercises them:

    * :meth:`event` — structured trace event (run/classifier/adaptation);
    * :meth:`count` / :meth:`gauge` / :meth:`observe` — metrics;
    * :meth:`phase_time` — one engine phase of one step took ``elapsed_s``;
    * :meth:`channel_eval` — one channel evaluation of ``batch_size`` links.
    """

    #: Instrumentation points check this before doing any work beyond the
    #: hook call itself (building payloads, reading the wall clock).
    enabled: bool = False

    def count(self, name: str, value: float = 1.0, client: Optional[str] = None) -> None:
        """Increment counter ``name`` (per-client series via ``client``)."""

    def gauge(self, name: str, value: float, client: Optional[str] = None) -> None:
        """Set gauge ``name`` to ``value``."""

    def observe(self, name: str, value: float, client: Optional[str] = None) -> None:
        """Add ``value`` to histogram ``name``."""

    def event(
        self,
        kind: str,
        time_s: float,
        client: Optional[str] = None,
        step: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Emit one structured trace event."""

    def phase_time(
        self, phase: str, step: int, time_s: float, elapsed_s: float, n_clients: int = 1
    ) -> None:
        """One engine phase of step ``step`` (simulation time ``time_s``)
        took ``elapsed_s`` of wall time across all sessions, serving
        ``n_clients`` clients (cohort sessions count every member)."""

    def channel_eval(
        self,
        op: str,
        batch_size: int,
        n_samples: int,
        elapsed_s: float,
        time_s: float = 0.0,
    ) -> None:
        """One channel evaluation: ``batch_size`` links over ``n_samples``
        grid samples through kernel ``op``.  Live recorders trace it as a
        ``channel_batch`` event for more than one link, else as
        ``channel_eval``."""


class NullRecorder(Recorder):
    """The shared disabled recorder (all hooks inherited no-ops)."""


#: The default recorder every instrumentation point starts bound to.
NULL_RECORDER = NullRecorder()


class ShieldedRecorder(Recorder):
    """Wraps a live recorder so observer exceptions never reach the run.

    Observability must only observe: a recorder that raises (a broken
    custom sink, a full disk behind an exporter, an injected
    :class:`repro.faults.RecorderFault`) may lose telemetry but can never
    abort the simulation.  The first error is kept (:attr:`first_error`),
    every error is counted (:attr:`n_errors`), and after
    :attr:`max_errors` the shield disables itself so a persistently
    failing sink cannot tax the hot loop with exception handling forever.

    The engine shields its recorder automatically at ``run()``;
    :func:`shield` is idempotent and passes disabled recorders through
    untouched.
    """

    def __init__(self, inner: Recorder, max_errors: int = 100) -> None:
        if max_errors < 1:
            raise ValueError(f"max_errors must be positive, got {max_errors}")
        self.inner = inner
        self.max_errors = max_errors
        self.n_errors = 0
        self.first_error: Optional[BaseException] = None
        self.enabled = inner.enabled

    def _note(self, exc: BaseException) -> None:
        self.n_errors += 1
        if self.first_error is None:
            self.first_error = exc
        if self.n_errors >= self.max_errors:
            self.enabled = False

    def count(self, name: str, value: float = 1.0, client: Optional[str] = None) -> None:
        if not self.enabled:
            return
        try:
            self.inner.count(name, value, client=client)
        except Exception as exc:  # noqa: BLE001 - the whole point of the shield
            self._note(exc)

    def gauge(self, name: str, value: float, client: Optional[str] = None) -> None:
        if not self.enabled:
            return
        try:
            self.inner.gauge(name, value, client=client)
        except Exception as exc:  # noqa: BLE001
            self._note(exc)

    def observe(self, name: str, value: float, client: Optional[str] = None) -> None:
        if not self.enabled:
            return
        try:
            self.inner.observe(name, value, client=client)
        except Exception as exc:  # noqa: BLE001
            self._note(exc)

    def event(
        self,
        kind: str,
        time_s: float,
        client: Optional[str] = None,
        step: Optional[int] = None,
        **fields: Any,
    ) -> None:
        if not self.enabled:
            return
        try:
            self.inner.event(kind, time_s, client=client, step=step, **fields)
        except Exception as exc:  # noqa: BLE001
            self._note(exc)

    def phase_time(
        self, phase: str, step: int, time_s: float, elapsed_s: float, n_clients: int = 1
    ) -> None:
        if not self.enabled:
            return
        try:
            self.inner.phase_time(phase, step, time_s, elapsed_s, n_clients=n_clients)
        except Exception as exc:  # noqa: BLE001
            self._note(exc)

    def channel_eval(
        self,
        op: str,
        batch_size: int,
        n_samples: int,
        elapsed_s: float,
        time_s: float = 0.0,
    ) -> None:
        if not self.enabled:
            return
        try:
            self.inner.channel_eval(op, batch_size, n_samples, elapsed_s, time_s=time_s)
        except Exception as exc:  # noqa: BLE001
            self._note(exc)


def shield(recorder: Recorder, max_errors: int = 100) -> Recorder:
    """Wrap ``recorder`` in a :class:`ShieldedRecorder` if it is live.

    Disabled recorders (the shared :data:`NULL_RECORDER`) and recorders
    that are already shielded pass through unchanged, so the disabled hot
    path stays zero-overhead and shields never nest.
    """
    if not recorder.enabled or isinstance(recorder, ShieldedRecorder):
        return recorder
    return ShieldedRecorder(recorder, max_errors=max_errors)


class TelemetryRecorder(Recorder):
    """A live recorder: metrics registry + event tracer + run profile.

    One instance can observe a whole engine run (or several — metrics and
    events simply accumulate).  Exports are available directly::

        recorder = TelemetryRecorder()
        engine = SimulationEngine(grid, recorder=recorder)
        ...
        recorder.write_events_jsonl("trace.jsonl")
        recorder.write_metrics_csv("metrics.csv")
        print(recorder.summary())
    """

    enabled = True

    def __init__(self, capacity: int = 65536) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(capacity)
        self.profile = RunProfile()

    # ---------------------------------------------------------------- metrics

    def count(self, name: str, value: float = 1.0, client: Optional[str] = None) -> None:
        self.metrics.count(name, value, client=client)

    def gauge(self, name: str, value: float, client: Optional[str] = None) -> None:
        self.metrics.set_gauge(name, value, client=client)

    def observe(self, name: str, value: float, client: Optional[str] = None) -> None:
        self.metrics.observe(name, value, client=client)

    # ----------------------------------------------------------------- events

    def event(
        self,
        kind: str,
        time_s: float,
        client: Optional[str] = None,
        step: Optional[int] = None,
        **fields: Any,
    ) -> None:
        self.tracer.emit(kind, time_s, client=client, step=step, **fields)
        self.metrics.count(f"events.{kind}")

    # -------------------------------------------------------------- profiling

    def phase_time(
        self, phase: str, step: int, time_s: float, elapsed_s: float, n_clients: int = 1
    ) -> None:
        self.profile.add_phase(phase, elapsed_s, n_clients=n_clients)
        self.metrics.observe("phase.elapsed_s", elapsed_s)
        self.tracer.emit(
            "phase", time_s, step=step, phase=phase, elapsed_s=elapsed_s, n_clients=n_clients
        )
        self.metrics.count("events.phase")

    def channel_eval(
        self,
        op: str,
        batch_size: int,
        n_samples: int,
        elapsed_s: float,
        time_s: float = 0.0,
    ) -> None:
        self.profile.add_channel(op, elapsed_s)
        self.metrics.count(f"channel.{op}.calls")
        self.metrics.observe("channel.elapsed_s", elapsed_s)
        kind = "channel_batch" if batch_size > 1 else "channel_eval"
        self.tracer.emit(
            kind,
            time_s,
            op=op,
            batch_size=batch_size,
            n_samples=n_samples,
            elapsed_s=elapsed_s,
        )
        self.metrics.count(f"events.{kind}")

    # ---------------------------------------------------------------- exports

    @property
    def events(self) -> Sequence[TraceEvent]:
        return self.tracer.events

    def summary(self, title: str = "run summary") -> str:
        from repro.telemetry.export import render_run_summary

        return render_run_summary(self, title=title)

    def write_events_jsonl(self, path: "PathLike") -> None:
        from repro.telemetry.export import write_events_jsonl

        write_events_jsonl(self.tracer, path)

    def write_metrics_csv(self, path: "PathLike") -> None:
        from repro.telemetry.export import write_metrics_csv

        write_metrics_csv(self.metrics, path)
