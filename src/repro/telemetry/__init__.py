"""repro.telemetry — zero-overhead observability for the simulation engine.

Every instrumentation point in the engine, the sessions, the channel
layer, and the classifier talks to a :class:`Recorder`.  The default is
the shared :data:`NULL_RECORDER`, whose hooks are all no-op method calls,
so an uninstrumented run pays one attribute call per hook and nothing
else — seeded outputs are bit-identical with telemetry on or off (pinned
by ``tests/test_telemetry.py`` against the engine goldens).

Swap in a :class:`TelemetryRecorder` and the same run produces:

* a :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
  histograms (``recorder.metrics``);
* a ring-buffered structured event trace (``recorder.tracer``) — phase
  timings, classifier verdicts, hint transitions, adaptation actions,
  batched channel evaluations;
* a per-phase / per-channel-call wall-time profile (``recorder.profile``);
* exporters: JSONL event trace, flat CSV metrics dump, and a
  human-readable run summary table (``recorder.summary()``).

See ``docs/observability.md`` for the recorder API, the event schema,
and the exporter formats.
"""

from repro.telemetry.export import (
    events_to_jsonl,
    failures_to_json,
    format_counts,
    metrics_to_csv,
    render_run_summary,
    write_events_jsonl,
    write_failure_report,
    write_metrics_csv,
)
from repro.telemetry.metrics import (
    DEFAULT_HISTOGRAM_EDGES,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.telemetry.profiler import RunProfile
from repro.telemetry.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    ShieldedRecorder,
    TelemetryRecorder,
    shield,
)
from repro.telemetry.tracer import TraceEvent, Tracer

__all__ = [
    "DEFAULT_HISTOGRAM_EDGES",
    "NULL_RECORDER",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "RunProfile",
    "ShieldedRecorder",
    "TelemetryRecorder",
    "TraceEvent",
    "Tracer",
    "events_to_jsonl",
    "failures_to_json",
    "format_counts",
    "metrics_to_csv",
    "render_run_summary",
    "shield",
    "write_events_jsonl",
    "write_failure_report",
    "write_metrics_csv",
]
