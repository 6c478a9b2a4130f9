"""Tests for the telemetry name registry (repro.telemetry.names).

The registry is a *contract*: every name a real instrumented run emits
must resolve to a registered name or pattern, and the docs table in
``docs/observability.md`` must match the registry byte-for-byte.  The
static side of the contract (literal names at emission sites) is REP003
in ``repro.analysis``; this file checks the dynamic side against an
actual engine run.
"""

from pathlib import Path

import pytest

from repro.channel.config import ChannelConfig
from repro.core.hints import MobilityEstimate
from repro.experiments.common import sense_and_classify
from repro.mobility.modes import Heading, MobilityMode
from repro.mobility.scenarios import macro_scenario
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.simulator import RateControlSession
from repro.roaming.schemes import ControllerRoaming, DefaultClientRoaming
from repro.roaming.simulator import RoamingSession
from repro.sim import SimulationEngine, TimeGrid
from repro.telemetry import TelemetryRecorder
from repro.telemetry import names
from repro.testing import synthetic_trace
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel
from repro.wlan.stack import StackSession, mobility_aware_stack

REPO_ROOT = Path(__file__).resolve().parents[1]


def unregistered_names(recorder):
    """Every (kind, name) the recorder holds that the registry disowns."""
    bad = set()
    for metric in recorder.metrics.metrics():
        kind = next(metric.rows())[0]  # "counter" / "gauge" / "histogram"
        if not names.is_registered(metric.name, kind):
            bad.add((kind, metric.name))
    for event in recorder.events:
        if not names.is_registered(event.kind, "event"):
            bad.add(("event", event.kind))
    return sorted(bad)


class TestRegistryLookup:
    def test_exact_name(self):
        assert names.is_registered("handoffs", "counter")
        assert not names.is_registered("handofs", "counter")

    def test_pattern_matches_one_segment(self):
        assert names.is_registered("classifier.mode.static", "counter")
        assert names.is_registered("channel.csi.calls", "counter")
        # `*` is one dot-free segment, not a glob over dots.
        assert not names.is_registered("channel.a.b.calls", "counter")

    def test_kind_narrows_lookup(self):
        assert names.is_registered("run_start", "event")
        assert not names.is_registered("run_start", "counter")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            names.entries("meter")

    def test_match_prefix_for_fstrings(self):
        assert names.match_prefix("channel.", "counter")
        assert names.match_prefix("classifier.mode.", "counter")
        assert not names.match_prefix("chanel.", "counter")
        assert not names.match_prefix("classifier.mode.", "event")

    def test_registry_is_sorted_and_typed(self):
        for entry in names.REGISTRY:
            assert entry.kind in names.KINDS
            assert entry.meaning
        per_kind = {}
        for entry in names.REGISTRY:
            per_kind.setdefault(entry.kind, []).append(entry.name)
        for kind, kind_names in per_kind.items():
            assert kind_names == sorted(kind_names), f"{kind} names unsorted"
            assert len(set(kind_names)) == len(kind_names), f"{kind} has duplicates"


class TestRealRunEmitsOnlyRegisteredNames:
    """The dynamic half of the schema contract."""

    def test_sensing_run_is_fully_registered(self):
        recorder = TelemetryRecorder()
        scenario = macro_scenario(Point(2.0, 3.0), seed=7)
        sense_and_classify(
            scenario, ap=Point(0.0, 0.0), duration_s=12.0, seed=7, recorder=recorder
        )
        assert unregistered_names(recorder) == []
        # The run actually exercised the registry (not vacuously true).
        assert recorder.metrics.metrics() and len(recorder.events) > 0

    def test_hinted_rate_control_run_is_fully_registered(self):
        recorder = TelemetryRecorder()
        trace = synthetic_trace(snr_db=25.0, duration_s=5.0)
        hints = [MobilityEstimate(1.0, MobilityMode.MACRO, Heading.AWAY, tof_window_full=True)]
        engine = SimulationEngine(TimeGrid(trace.times), recorder=recorder)
        engine.add(RateControlSession(AtherosRateAdaptation(), trace, hints=hints))
        engine.run()
        assert unregistered_names(recorder) == []
        assert "rate.hints" in {metric.name for metric in recorder.metrics.metrics()}

    def test_stack_and_roaming_runs_are_fully_registered(self):
        recorder = TelemetryRecorder()
        scenario = macro_scenario(Point(6.0, 6.0), area=(2.0, 2.0, 38.0, 23.0), seed=21)
        channel = MultiApChannel(
            default_office_floorplan(), ChannelConfig(tx_power_dbm=8.0), seed=21
        )
        multi = channel.evaluate(
            scenario.sample(15.0, 0.02), sample_interval_s=0.1, include_h=True
        )
        engine = SimulationEngine(TimeGrid(multi.times), recorder=recorder)
        engine.add(StackSession(multi, mobility_aware_stack(), seed=4, client="stack"))
        engine.add(RoamingSession(multi, ControllerRoaming(), seed=4, client="controller"))
        engine.add(RoamingSession(multi, DefaultClientRoaming(), seed=4, client="default"))
        engine.run()
        assert unregistered_names(recorder) == []
        emitted = {metric.name for metric in recorder.metrics.metrics()}
        for name in ("scans", "handoffs", "stack.handoffs", "roaming.handoffs"):
            assert name in emitted
        actions = {e.fields.get("action") for e in recorder.events if e.kind == "adaptation"}
        assert {"scan", "handoff", "hint_applied"} <= actions

    def test_deliberate_violation_is_caught(self):
        """An unregistered emission must be visible to the checker."""
        recorder = TelemetryRecorder()
        recorder.count("sneaky.unregistered.counter")
        recorder.event("sneaky_event", 0.0)
        bad = unregistered_names(recorder)
        assert ("counter", "sneaky.unregistered.counter") in bad
        assert ("event", "sneaky_event") in bad


class TestDocsSync:
    def test_observability_docs_table_is_current(self):
        text = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
        assert names.docs_in_sync(text), (
            "docs/observability.md registry table is stale — run "
            "`python -m repro.telemetry.names --write docs/observability.md`"
        )

    def test_sync_docs_replaces_block(self):
        stale = (
            "# Docs\n\n"
            f"{names.DOCS_BEGIN}\nold table\n{names.DOCS_END}\n\n## After\n"
        )
        synced = names.sync_docs(stale)
        assert "old table" not in synced
        assert names.docs_in_sync(synced)
        assert "## After" in synced
        # Re-syncing is idempotent.
        assert names.sync_docs(synced) == synced

    def test_cli_check_mode(self, tmp_path):
        import subprocess
        import sys

        doc = tmp_path / "doc.md"
        doc.write_text(f"{names.DOCS_BEGIN}\nstale\n{names.DOCS_END}\n")
        check = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.names", "--check", str(doc)],
            capture_output=True,
            text=True,
        )
        assert check.returncode == 1
        write = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.names", "--write", str(doc)],
            capture_output=True,
            text=True,
        )
        assert write.returncode == 0
        recheck = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.names", "--check", str(doc)],
            capture_output=True,
            text=True,
        )
        assert recheck.returncode == 0, recheck.stdout + recheck.stderr
