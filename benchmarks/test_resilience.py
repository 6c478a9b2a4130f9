"""Self-healing runtime benchmarks: checkpoint, recovery, rollover cost.

The streaming benches (``test_streaming.py``) time the bare router loop;
here the same workload runs under the :class:`repro.resilience`
supervisor and the *resilience machinery itself* is on the clock.  Per
fleet size the sweep records:

* checkpoint ``save()`` latency percentiles (p50/p99) and the artifact
  size on disk — the recurring cost a cadence pays;
* cold recovery latency (``scan_checkpoints`` + ``ResilientService``
  restore) — the time from crash to serving again;
* rollover overhead: wall-clock for a run forced through many horizon
  rollovers vs the same run on one long grid (ratio ~1 means the
  checkpoint/restore seam is cheap enough to leave on everywhere);
* artifact growth: a rollover starts the next segment with an empty
  estimate history, so the rolled run's newest artifact (after at least
  3 rollovers) must be at most 1.1x the first one written after its
  first rollover — a deterministic size gate.

Results land in ``BENCH_resilience.json`` at the repo root (uploaded as
a CI artifact next to ``BENCH_streaming.json``).

Wall-clock timing here is the *point* of the module, not a REP002 leak:
benchmarks are exempt (they measure the host, not simulated time).
"""

import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.core.batched import BatchedMobilityClassifier
from repro.resilience import (
    ResilienceConfig,
    ResilientService,
    SourceSpec,
    list_artifacts,
    scan_checkpoints,
)
from repro.stream import FleetSpec, SimulatedSource, StreamConfig

#: Machine-readable resilience results, written once every fleet size
#: has run (consumed by CI as an artifact, mirroring BENCH_streaming).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_resilience.json"
_FLEET_SIZES = (64, 256, 1024)
_DURATION_S = 10.0
_resilience_results = {}


@pytest.fixture(scope="module")
def fleets():
    cache = {}

    def build(n_clients):
        if n_clients not in cache:
            spec = FleetSpec(n_clients=n_clients, duration_s=_DURATION_S)
            source = SimulatedSource(spec, seed=17)
            cache[n_clients] = (spec, source.labels, list(source))
        return cache[n_clients]

    return build


def _run_service(spec, labels, events, workdir, horizon_steps, every_s=2.0,
                 save_latencies=None, artifact_sizes=None):
    service = ResilientService(
        BatchedMobilityClassifier(list(labels)),
        StreamConfig(dt_s=spec.csi_period_s, horizon_steps=horizon_steps),
        resilience=ResilienceConfig(
            checkpoint_dir=str(workdir), checkpoint_every_s=every_s,
            keep_checkpoints=3,
        ),
    )
    inner_save = service.checkpoints.save

    def observed_save(router, extra=None):
        t0 = perf_counter()
        path = inner_save(router, extra=extra)
        if save_latencies is not None:
            save_latencies.append(perf_counter() - t0)
        if artifact_sizes is not None:
            artifact_sizes.append((service.rollovers, os.path.getsize(path)))
        return path

    service.checkpoints.save = observed_save
    service.run(
        [SourceSpec("fleet", lambda: list(events), clients=tuple(labels))],
        until_s=_DURATION_S,
    )
    return service


def _record_result(n_clients, entry):
    _resilience_results[n_clients] = entry
    if all(n in _resilience_results for n in _FLEET_SIZES):
        payload = {
            "benchmark": "resilience_runtime",
            "duration_s": _DURATION_S,
            "results": [_resilience_results[n] for n in _FLEET_SIZES],
        }
        BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("n_clients", list(_FLEET_SIZES))
def test_perf_resilient_service(fleets, tmp_path, n_clients):
    """Checkpoint, recovery, and rollover costs for one fleet size."""
    spec, labels, events = fleets(n_clients)

    # Long grid: the no-rollover reference run, with timed checkpoints.
    save_latencies = []
    started = perf_counter()
    service = _run_service(
        spec, labels, events, tmp_path / "long", horizon_steps=4 * spec.n_steps,
        save_latencies=save_latencies,
    )
    long_elapsed_s = perf_counter() - started
    assert service.rollovers == 0
    artifacts = list_artifacts(str(tmp_path / "long"))
    artifact_bytes = os.path.getsize(artifacts[-1])

    # Cold recovery: scan the directory and rebuild the service.
    t0 = perf_counter()
    state, path, rejected = scan_checkpoints(str(tmp_path / "long"))
    recovered = ResilientService.recover(service.resilience)
    recovery_s = perf_counter() - t0
    assert rejected == []
    assert recovered.clock_s == pytest.approx(service.clock_s)

    # Tiny horizon: the same run forced through many rollovers.
    rolled_sizes = []
    started = perf_counter()
    rolled = _run_service(
        spec, labels, events, tmp_path / "rolled",
        horizon_steps=max(5, spec.n_steps // 5), artifact_sizes=rolled_sizes,
    )
    rolled_elapsed_s = perf_counter() - started
    assert rolled.rollovers >= 3
    # Size gate: artifacts do not grow with uptime across rollovers.
    first_rolled_bytes = next(size for rollovers, size in rolled_sizes if rollovers == 1)
    newest_rollovers, newest_bytes = rolled_sizes[-1]
    assert newest_rollovers >= 3
    assert newest_bytes <= 1.1 * first_rolled_bytes, (
        f"artifact grew from {first_rolled_bytes} B after rollover 1 to "
        f"{newest_bytes} B after rollover {newest_rollovers}"
    )

    ordered = np.sort(np.asarray(save_latencies))
    entry = {
        "n_clients": n_clients,
        "n_steps": spec.n_steps,
        "n_checkpoints": len(save_latencies),
        "artifact_bytes": int(artifact_bytes),
        "bytes_per_session": float(artifact_bytes / n_clients),
        "rolled_first_bytes": int(first_rolled_bytes),
        "rolled_newest_bytes": int(newest_bytes),
        "checkpoint_p50_ms": float(np.percentile(ordered, 50) * 1e3),
        "checkpoint_p99_ms": float(np.percentile(ordered, 99) * 1e3),
        "recovery_ms": float(recovery_s * 1e3),
        "n_rollovers": rolled.rollovers,
        "long_grid_s": float(long_elapsed_s),
        "rollover_run_s": float(rolled_elapsed_s),
        "rollover_overhead": float(rolled_elapsed_s / long_elapsed_s),
    }
    _record_result(n_clients, entry)

    print(
        f"\n[resilience] {n_clients} clients: "
        f"checkpoint p50 {entry['checkpoint_p50_ms']:.2f} ms "
        f"({entry['artifact_bytes'] / 1024:.0f} KiB), "
        f"recovery {entry['recovery_ms']:.1f} ms, "
        f"rollover overhead {entry['rollover_overhead']:.2f}x"
        f" over {entry['n_rollovers']} rollovers"
    )


def test_resilience_bench_artifact_schema():
    """The artifact CI uploads has the fields the dashboards key on."""
    if not BENCH_JSON_PATH.exists():
        pytest.skip("resilience sweep has not written BENCH_resilience.json yet")
    payload = json.loads(BENCH_JSON_PATH.read_text())
    assert payload["benchmark"] == "resilience_runtime"
    sizes = [entry["n_clients"] for entry in payload["results"]]
    assert sizes == sorted(sizes) and sizes[-1] >= 1000
    for entry in payload["results"]:
        for key in (
            "artifact_bytes",
            "bytes_per_session",
            "checkpoint_p50_ms",
            "checkpoint_p99_ms",
            "recovery_ms",
            "n_rollovers",
            "rollover_overhead",
        ):
            assert key in entry, f"missing {key}"
