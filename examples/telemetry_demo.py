#!/usr/bin/env python
"""Observability tour: one seeded run, fully traced.

Runs a three-client engine (one sensing session feeding the classifier,
two saturated rate-control links with mobility hints) with a live
:class:`repro.telemetry.TelemetryRecorder`, then writes every export:

* ``trace.jsonl``  — the structured event trace (one JSON object/line);
* ``metrics.csv``  — flat counters/gauges/histogram dump;
* stdout           — the human-readable run summary table.

Output paths can be overridden: ``python examples/telemetry_demo.py out/``.
CI runs this to attach a sample trace to the build artifacts.

Run:  python examples/telemetry_demo.py [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro.channel.config import ChannelConfig
from repro.channel.model import MultiLinkChannel
from repro.core import BatchedMobilityClassifier
from repro.core.hints import MobilityEstimate
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.trajectory import WaypointWalkTrajectory
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.simulator import RateControlSession
from repro.sim import BatchedSensingSession, SimulationEngine
from repro.telemetry import TelemetryRecorder
from repro.util.geometry import Point

N_CLIENTS = 3
DURATION_S = 5.0


def build_engine(recorder: TelemetryRecorder) -> SimulationEngine:
    trajectories = [
        WaypointWalkTrajectory(
            Point(5.0 + i, 5.0), area=(-40, -40, 40, 40), seed=10 + i
        ).sample(DURATION_S, 0.05)
        for i in range(N_CLIENTS)
    ]
    hints = [MobilityEstimate(1.0, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True)]

    def factory(index, trace):
        if index == 0:
            measured = trace.measured_csi(np.random.default_rng(0))
            return BatchedSensingSession(
                BatchedMobilityClassifier(["sense-0"]), [measured], client="sense-0"
            )
        return RateControlSession(
            AtherosRateAdaptation(), trace, hints=hints, client=f"rate-{index}"
        )

    channel = MultiLinkChannel.for_clients(Point(0, 0), N_CLIENTS, ChannelConfig(), seed=9)
    return SimulationEngine.for_clients(
        channel, trajectories, factory, sample_interval_s=0.1, include_h=True,
        recorder=recorder,
    )


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    recorder = TelemetryRecorder()
    results = build_engine(recorder).run()

    trace_path = out_dir / "trace.jsonl"
    metrics_path = out_dir / "metrics.csv"
    recorder.write_events_jsonl(trace_path)
    recorder.write_metrics_csv(metrics_path)

    print(recorder.summary(title="telemetry demo run"))
    print()
    print(f"clients:       {', '.join(sorted(results))}")
    print(f"event trace:   {trace_path} ({len(recorder.tracer)} events)")
    print(f"metrics dump:  {metrics_path} ({len(recorder.metrics)} metrics)")


if __name__ == "__main__":
    main()
