"""The single registry of telemetry names.

Every counter, gauge, histogram, and trace-event kind the library emits
is declared here, once, with a one-line meaning.  The registry is what
keeps three things from drifting apart:

* the emission sites (``recorder.count("supervisor.failures")`` …),
  checked statically by rule REP003 in :mod:`repro.analysis` and at
  runtime by ``tests/test_telemetry_names.py``;
* the schema tables in ``docs/observability.md``, generated from this
  module (``python -m repro.telemetry.names --write docs/observability.md``);
* downstream consumers of the JSONL/CSV exports, who can treat these
  names as a stable contract.

Names with a per-emission dynamic component (event-kind counters, per-op
channel counters, fault statistics) are declared as *patterns* where
``*`` matches exactly one dot-free segment — ``channel.*.calls`` matches
``channel.csi.calls`` but not ``channel.a.b.calls``.

Adding a metric or event therefore means: declare it here (with its
meaning), emit it, and regenerate the docs table.  A literal name that
does not resolve to the registry fails ``repro-lint`` and the telemetry
test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Registry entry kinds, in docs-table order.
KINDS: Tuple[str, ...] = ("counter", "gauge", "histogram", "event")


@dataclass(frozen=True)
class TelemetryName:
    """One registered name (or ``*``-pattern) with its meaning."""

    kind: str  # "counter" | "gauge" | "histogram" | "event"
    name: str  # exact name, or a pattern with ``*`` segments
    meaning: str

    @property
    def is_pattern(self) -> bool:
        return "*" in self.name

    def matches(self, candidate: str) -> bool:
        """True if ``candidate`` is this exact name or matches the pattern."""
        if not self.is_pattern:
            return candidate == self.name
        return _pattern_regex(self.name).fullmatch(candidate) is not None


def _pattern_regex(pattern: str) -> "re.Pattern[str]":
    parts = [re.escape(p) if p != "*" else r"[^.]+" for p in pattern.split(".")]
    return re.compile(r"\.".join(parts))


_C = "counter"
_G = "gauge"
_H = "histogram"
_E = "event"

#: Every telemetry name the library emits.  Keep sorted within each kind.
REGISTRY: Tuple[TelemetryName, ...] = (
    # ------------------------------------------------------------- counters
    TelemetryName(_C, "channel.*.calls", "channel evaluations per kernel op"),
    TelemetryName(_C, "classifier.csi_gaps", "CSI similarity streams restarted across a sampling gap"),
    TelemetryName(_C, "classifier.decisions", "batched classifier decision passes"),
    TelemetryName(_C, "classifier.invalid_samples", "non-finite ToF/CSI samples discarded"),
    TelemetryName(_C, "classifier.mode.*", "verdicts per mobility mode (static/environmental/micro/macro)"),
    TelemetryName(_C, "classifier.tof_gaps", "ToF median periods degraded (sparse or empty)"),
    TelemetryName(_C, "controller.ap_down", "APs quarantined by the controller"),
    TelemetryName(_C, "controller.handovers", "handovers issued by the controller policy"),
    TelemetryName(_C, "controller.pingpong", "handovers straight back to the previous AP"),
    TelemetryName(_C, "controller.reassociations", "clients evacuated from a dead AP"),
    TelemetryName(_C, "controller.suppressed", "would-be roams vetoed by the policy"),
    TelemetryName(_C, "events.*", "trace events emitted, per kind"),
    TelemetryName(_C, "faults.*.*.*", "injected-fault statistics: faults.<stream>.<kind>.<stat>"),
    TelemetryName(_C, "feedback_refreshes", "CSI feedback refreshes performed by the stack session"),
    TelemetryName(_C, "handoffs", "AP handoffs performed (per client)"),
    TelemetryName(_C, "io.csitool.nonmonotonic", "out-of-order capture timestamps skipped by the replay reader"),
    TelemetryName(_C, "rate.frames", "frames transmitted by the rate-control session"),
    TelemetryName(_C, "rate.hints", "mobility hints applied by rate control"),
    TelemetryName(_C, "resilience.checkpoints", "supervised checkpoint artifacts written"),
    TelemetryName(_C, "resilience.checkpoints_pruned", "checkpoint artifacts removed by keep-last-K retention"),
    TelemetryName(_C, "resilience.corrupt_artifacts", "checkpoint artifacts refused by the recovery scan"),
    TelemetryName(_C, "resilience.degraded_hints", "safe-default hints served while a client's source was down"),
    TelemetryName(_C, "resilience.prune_errors", "retention removals that failed (retried next prune)"),
    TelemetryName(_C, "resilience.recoveries", "services resumed from a checkpoint directory"),
    TelemetryName(_C, "resilience.rollovers", "automatic grid-horizon rollovers absorbed mid-advance"),
    TelemetryName(_C, "resilience.source_dropped", "observations lost inside a source's backoff window"),
    TelemetryName(_C, "resilience.source_failures", "supervised-source failures observed"),
    TelemetryName(_C, "resilience.source_retries", "source restarts granted with backoff"),
    TelemetryName(_C, "resilience.sources_shed", "sources abandoned by the circuit breaker"),
    TelemetryName(_C, "scans", "full AP scans performed (per client)"),
    TelemetryName(_C, "scheduler.hints", "mobility hints applied by the scheduler"),
    TelemetryName(_C, "scheduler.slots", "transmission slots granted (per client)"),
    TelemetryName(_C, "sensing.csi_missing", "engine steps with no CSI observation for a client"),
    TelemetryName(_C, "stream.accepted", "observations accepted into a session queue"),
    TelemetryName(_C, "stream.blocked", "offers rejected by a full queue under the block policy"),
    TelemetryName(_C, "stream.dropped", "queued observations discarded under the drop_oldest policy"),
    TelemetryName(_C, "stream.evicted", "idle sessions whose classifier state was evicted"),
    TelemetryName(_C, "stream.invalid_time", "observations refused for a NaN or infinite timestamp"),
    TelemetryName(_C, "stream.late", "observations arriving behind the already-stepped clock"),
    TelemetryName(_C, "stream.revived", "evicted sessions revived by a fresh observation"),
    TelemetryName(_C, "stream.shed", "observations refused because their session was shed"),
    TelemetryName(_C, "stream.shed_sessions", "sessions shed under the shed_session overload policy"),
    TelemetryName(_C, "stream.unknown_client", "observations refused for labels outside the cohort"),
    TelemetryName(_C, "supervisor.degrade_errors", "on_quarantine hooks that themselves raised (absorbed)"),
    TelemetryName(_C, "supervisor.failures", "session failures observed, before any retry/quarantine decision"),
    TelemetryName(_C, "supervisor.quarantined", "sessions quarantined this run"),
    TelemetryName(_C, "supervisor.retries", "retry suspensions granted"),
    TelemetryName(_C, "tof.medians_discarded", "ToF medians dropped with their degraded period"),
    TelemetryName(_C, "tof.windows_invalidated", "ToF trend windows invalidated by a gap marker"),
    # --------------------------------------------------------------- gauges
    TelemetryName(_G, "controller.aps_alive", "live APs after the latest controller action"),
    TelemetryName(_G, "controller.churn", "fraction of the fleet handed over this epoch"),
    TelemetryName(_G, "rate.throughput_mbps", "most recent rate-control throughput"),
    TelemetryName(_G, "resilience.checkpoints_retained", "artifacts on disk after the latest retention prune"),
    TelemetryName(_G, "roaming.handoffs", "final handoff count of a roaming run"),
    TelemetryName(_G, "roaming.mean_goodput_mbps", "mean goodput of a roaming run"),
    TelemetryName(_G, "roaming.scans", "final scan count of a roaming run"),
    TelemetryName(_G, "scheduler.client_mbps", "per-client goodput at the end of a scheduler run"),
    TelemetryName(_G, "stack.feedbacks", "final feedback-refresh count of a full-stack run"),
    TelemetryName(_G, "stack.handoffs", "final handoff count of a full-stack run"),
    TelemetryName(_G, "stack.mean_goodput_mbps", "mean goodput of a full-stack run"),
    TelemetryName(_G, "stack.scans", "final scan count of a full-stack run"),
    TelemetryName(_G, "stream.backlog", "queued observations across all sessions, per pump that ran >= 1 step"),
    TelemetryName(_G, "stream.sessions_active", "non-evicted, non-shed sessions, per pump that ran >= 1 step"),
    # ----------------------------------------------------------- histograms
    TelemetryName(_H, "channel.elapsed_s", "wall time of one channel evaluation"),
    TelemetryName(_H, "controller.epoch_s", "wall time of one controller policy epoch"),
    TelemetryName(_H, "phase.elapsed_s", "wall time of one engine phase of one step"),
    TelemetryName(_H, "rate.frame_airtime_s", "airtime of one rate-control frame"),
    TelemetryName(_H, "scheduler.frame_airtime_s", "airtime of one scheduled frame"),
    TelemetryName(_H, "stream.offer_s", "wall time of one observation offer into the router"),
    TelemetryName(_H, "stream.step_s", "wall time of one router pump that ran >= 1 step (engine steps + evictions)"),
    # --------------------------------------------------------------- events
    TelemetryName(_E, "adaptation", "a session applied a decision (handoff/scan/hint_applied)"),
    TelemetryName(_E, "channel_batch", "one batched MultiLinkChannel.evaluate_many call"),
    TelemetryName(_E, "channel_eval", "one scalar LinkChannel evaluation"),
    TelemetryName(_E, "checkpoint_rejected", "the recovery scan refused a corrupt checkpoint artifact"),
    TelemetryName(_E, "classifier_verdict", "one classifier decision (mode/heading/similarity)"),
    TelemetryName(_E, "controller_ap_down", "the controller quarantined an AP (ap/reason/evacuees)"),
    TelemetryName(_E, "controller_epoch", "one controller policy epoch (handovers/ping-pongs/suppressed)"),
    TelemetryName(_E, "controller_handover", "one issued handover (client, from_ap, to_ap, pingpong)"),
    TelemetryName(_E, "hint_transition", "classifier mode changed between consecutive verdicts"),
    TelemetryName(_E, "phase", "one engine phase of one step (wall time, client count)"),
    TelemetryName(_E, "run_abort", "terminal marker before a SessionError propagates (fail_fast)"),
    TelemetryName(_E, "run_end", "engine run completed"),
    TelemetryName(_E, "run_start", "engine run began (step/session counts)"),
    TelemetryName(_E, "sensing_gap", "classifier input degraded (gap / invalid sample)"),
    TelemetryName(_E, "service_recovered", "a ResilientService resumed from the newest valid artifact"),
    TelemetryName(_E, "service_rollover", "the service rolled into its next grid segment"),
    TelemetryName(_E, "session_failed", "supervisor observed a session failure"),
    TelemetryName(_E, "session_quarantined", "supervisor quarantined a session"),
    TelemetryName(_E, "session_resumed", "suspended session re-entered the loop"),
    TelemetryName(_E, "session_retry", "supervisor granted a retry suspension"),
    TelemetryName(_E, "source_down", "a supervised source failed (retry or shed follows)"),
    TelemetryName(_E, "source_restored", "a retried source resumed delivering past its backoff"),
    TelemetryName(_E, "source_shed", "the circuit breaker gave up on a source"),
    TelemetryName(_E, "stream_checkpoint", "router state serialized to a checkpoint artifact"),
    TelemetryName(_E, "stream_evict", "idle session state evicted (safe-default hint pushed)"),
    TelemetryName(_E, "stream_resume", "router restored from a checkpoint artifact"),
    TelemetryName(_E, "stream_revive", "evicted session revived by a fresh observation"),
    TelemetryName(_E, "stream_shed", "session shed under the shed_session overload policy"),
)


def entries(kind: Optional[str] = None) -> List[TelemetryName]:
    """Registry entries, optionally filtered to one ``kind``."""
    if kind is None:
        return list(REGISTRY)
    if kind not in KINDS:
        raise ValueError(f"unknown telemetry kind {kind!r}; expected one of {KINDS}")
    return [entry for entry in REGISTRY if entry.kind == kind]


def is_registered(name: str, kind: Optional[str] = None) -> bool:
    """True if ``name`` resolves to a registered name or pattern.

    ``kind`` narrows the lookup; metric kinds are interchangeable at the
    call site (``count``/``gauge``/``observe`` share a namespace in the
    registry check) while event kinds are separate.
    """
    for entry in entries(kind):
        if entry.matches(name):
            return True
    return False


def match_prefix(literal_prefix: str, kind: Optional[str] = None) -> bool:
    """True if some registered name could start with ``literal_prefix``.

    Used by the static checker for f-string names, where only the
    leading literal part is known (``f"classifier.mode.{mode}"`` →
    prefix ``classifier.mode.``).  Only the *complete* dot-separated
    segments of the prefix are compared; a registered pattern's ``*``
    segment matches anything.
    """
    segments = literal_prefix.split(".")[:-1]  # drop the trailing partial segment
    if not segments:
        return True  # nothing literal to check against
    for entry in entries(kind):
        entry_segments = entry.name.split(".")
        if len(entry_segments) < len(segments):
            continue
        if all(pat in ("*", seg) for pat, seg in zip(entry_segments, segments)):
            return True
    return False


# --------------------------------------------------------------- docs sync

#: Markers bracketing the generated block in docs/observability.md.
DOCS_BEGIN = "<!-- telemetry-names:begin (generated by python -m repro.telemetry.names) -->"
DOCS_END = "<!-- telemetry-names:end -->"

_KIND_TITLES: Dict[str, str] = {
    "counter": "Counters",
    "gauge": "Gauges",
    "histogram": "Histograms",
    "event": "Event kinds",
}


def render_registry_table() -> str:
    """The generated markdown block for ``docs/observability.md``."""
    lines: List[str] = [DOCS_BEGIN]
    for kind in KINDS:
        lines.append("")
        lines.append(f"### {_KIND_TITLES[kind]}")
        lines.append("")
        lines.append("| name | meaning |")
        lines.append("|------|---------|")
        for entry in entries(kind):
            lines.append(f"| `{entry.name}` | {entry.meaning} |")
    lines.append("")
    lines.append(DOCS_END)
    return "\n".join(lines)


def sync_docs(text: str) -> str:
    """Return ``text`` with the generated block replaced (or appended)."""
    block = render_registry_table()
    begin = text.find(DOCS_BEGIN)
    end = text.find(DOCS_END)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            "docs file has no telemetry-names markers; add the "
            f"{DOCS_BEGIN!r} / {DOCS_END!r} pair where the table belongs"
        )
    return text[:begin] + block + text[end + len(DOCS_END):]


def docs_in_sync(text: str) -> bool:
    """True if ``text`` already contains the current generated block."""
    return render_registry_table() in text


def _main(argv: Optional[Iterable[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.names",
        description="Print or sync the generated telemetry-name registry table.",
    )
    parser.add_argument(
        "--write",
        metavar="DOCS_FILE",
        help="rewrite the generated block in DOCS_FILE (docs/observability.md)",
    )
    parser.add_argument(
        "--check",
        metavar="DOCS_FILE",
        help="exit 1 if DOCS_FILE's generated block is stale",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.write:
        with open(args.write, "r", encoding="utf-8") as fh:
            text = fh.read()
        updated = sync_docs(text)
        with open(args.write, "w", encoding="utf-8") as fh:
            fh.write(updated)
        print(f"synced telemetry registry table in {args.write}")
        return 0
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            text = fh.read()
        if docs_in_sync(text):
            print(f"{args.check}: telemetry registry table up to date")
            return 0
        print(
            f"{args.check}: telemetry registry table is stale; run "
            f"python -m repro.telemetry.names --write {args.check}"
        )
        return 1
    print(render_registry_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
