#!/usr/bin/env python
"""Failure-containment tour: one client crashes, the run survives.

Runs a three-client engine (one sensing session feeding the classifier,
two saturated rate-control links) under the ``isolate`` supervision
policy with two seeded chaos injectors armed:

* a :class:`repro.faults.SessionCrashFault` kills one rate session
  mid-run — it is quarantined, the other two clients finish untouched;
* a :class:`repro.faults.RecorderFault` makes a slice of telemetry hooks
  raise — the engine's shield absorbs every one.

Exports:

* ``failures.json`` — the structured failure report
  (:func:`repro.telemetry.write_failure_report`);
* ``trace.jsonl``   — the event trace, including ``session_failed`` /
  ``session_quarantined``;
* stdout            — the run summary with its ``supervision:`` section.

Output paths can be overridden: ``python examples/chaos_demo.py out/``.
CI runs this to attach the failure report to the build artifacts.

Run:  python examples/chaos_demo.py [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro.channel.config import ChannelConfig
from repro.channel.model import MultiLinkChannel
from repro.core import BatchedMobilityClassifier
from repro.faults import RecorderFault, SessionCrashFault
from repro.mobility.trajectory import WaypointWalkTrajectory
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.simulator import RateControlSession
from repro.sim import (
    BatchedSensingSession,
    FailureRecord,
    SimulationEngine,
    SupervisorConfig,
)
from repro.telemetry import TelemetryRecorder, write_failure_report
from repro.util.geometry import Point

N_CLIENTS = 3
DURATION_S = 5.0

CRASH = SessionCrashFault(phase="transmit", at_step=20)
# Hot enough to prove the shield absorbs raises (~45 over the run),
# cool enough to stay below the shield's self-disable threshold
# (max_errors=100) so the supervision events still reach the trace.
RECORDER_CHAOS = RecorderFault(rate=0.02, seed=13, hooks=("observe",))


def build_engine(recorder) -> SimulationEngine:
    trajectories = [
        WaypointWalkTrajectory(
            Point(5.0 + i, 5.0), area=(-40, -40, 40, 40), seed=10 + i
        ).sample(DURATION_S, 0.05)
        for i in range(N_CLIENTS)
    ]

    def factory(index, trace):
        if index == 0:
            measured = trace.measured_csi(np.random.default_rng(0))
            return BatchedSensingSession(
                BatchedMobilityClassifier(["sense-0"]), [measured], client="sense-0"
            )
        session = RateControlSession(
            AtherosRateAdaptation(), trace, client=f"rate-{index}"
        )
        return CRASH.wrap(session) if index == 1 else session

    channel = MultiLinkChannel.for_clients(Point(0, 0), N_CLIENTS, ChannelConfig(), seed=9)
    return SimulationEngine.for_clients(
        channel, trajectories, factory, sample_interval_s=0.1, include_h=True,
        recorder=recorder,
        supervisor=SupervisorConfig(policy="isolate"),
    )


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    inner = TelemetryRecorder()
    engine = build_engine(RECORDER_CHAOS.wrap(inner))
    results = engine.run()

    failures_path = out_dir / "failures.json"
    trace_path = out_dir / "trace.jsonl"
    write_failure_report(engine.failures, failures_path)
    inner.write_events_jsonl(trace_path)

    print(inner.summary(title="chaos demo run"))
    print()
    survivors = sorted(c for c, r in results.items() if not isinstance(r, FailureRecord))
    print(f"survivors:       {', '.join(survivors)}")
    for client, record in sorted(engine.failures.items()):
        print(
            f"quarantined:     {client} in {record.phase!r} at step {record.step}"
            f" ({record.exception_type}: {record.message})"
        )
    print(f"recorder chaos:  {RECORDER_CHAOS.n_fired} injected raises, all absorbed")
    print(f"failure report:  {failures_path}")
    print(f"event trace:     {trace_path} ({len(inner.tracer)} events)")

    if set(engine.failures) != {"rate-1"} or len(survivors) != N_CLIENTS - 1:
        raise SystemExit("chaos demo expected exactly one quarantined client")


if __name__ == "__main__":
    main()
