"""Performance micro-benchmarks of the core primitives.

Unlike the figure benches (which run once and print paper rows), these use
pytest-benchmark's statistics to track the cost of the hot paths: CSI
similarity, channel evaluation, classifier decisions, frame transmission,
and ZF precoding.  They guard against performance regressions in the
simulator, whose experiments run millions of frames.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.beamforming.precoding import mrt_weights, zero_forcing_weights
from repro.channel.config import ChannelConfig
from repro.channel.model import LinkChannel, MultiLinkChannel
from repro.core.batched import BatchedMobilityClassifier, BatchedToFTrendDetector
from repro.core.classifier import MobilityClassifier
from repro.core.similarity import csi_similarity, csi_similarity_series
from repro.mac.aggregation import FrameTransmitter
from repro.mobility.trajectory import WaypointWalkTrajectory
from repro.sim import BatchedSensingSession, Session, SimulationEngine, TimeGrid
from repro.util.geometry import Point


@pytest.fixture(scope="module")
def csi_pair():
    rng = np.random.default_rng(0)
    shape = (52, 3, 2)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a, b


def test_perf_csi_similarity(benchmark, csi_pair):
    a, b = csi_pair
    result = benchmark(csi_similarity, a, b)
    assert -1.0 <= result <= 1.0


def test_perf_similarity_series(benchmark):
    rng = np.random.default_rng(1)
    h = rng.standard_normal((200, 52, 3, 2)) + 1j * rng.standard_normal((200, 52, 3, 2))
    series = benchmark(csi_similarity_series, h, 1)
    assert len(series) == 199


def test_perf_channel_evaluation(benchmark):
    trajectory = WaypointWalkTrajectory(
        Point(10, 5), area=(-40, -40, 40, 40), seed=2
    ).sample(10.0, 0.05)

    def evaluate():
        link = LinkChannel(Point(0, 0), ChannelConfig(), seed=3)
        return link.evaluate(trajectory.times, trajectory.positions, include_h=True)

    trace = benchmark(evaluate)
    assert trace.h.shape[0] == 200


def test_perf_classifier_decision(benchmark):
    rng = np.random.default_rng(4)
    samples = [np.abs(rng.standard_normal(52)) + 0.05 for _ in range(64)]

    def classify():
        clf = MobilityClassifier()
        for i, sample in enumerate(samples):
            clf.push_csi(0.5 * i, sample)
        return clf.estimate

    estimate = benchmark(classify)
    assert estimate is not None


def test_perf_tof_detector(benchmark):
    rng = np.random.default_rng(5)
    readings = rng.normal(700.0, 0.8, size=500)

    def run():
        detector = BatchedToFTrendDetector(1)
        for reading in readings:
            detector.push_one(0, float(reading))
        return detector.trend_of(0)

    benchmark(run)


def test_perf_frame_transmit(benchmark):
    transmitter = FrameTransmitter(seed=6)
    result = benchmark(transmitter.transmit, 11, 25.0, 23.0, 0.004)
    assert result.n_mpdus >= 1


def test_perf_mrt_weights(benchmark):
    rng = np.random.default_rng(7)
    h = rng.standard_normal((52, 3)) + 1j * rng.standard_normal((52, 3))
    weights = benchmark(mrt_weights, h)
    assert weights.shape == (52, 3)


def test_perf_zero_forcing(benchmark):
    rng = np.random.default_rng(8)
    h_users = rng.standard_normal((3, 13, 3)) + 1j * rng.standard_normal((3, 13, 3))
    weights = benchmark(zero_forcing_weights, h_users)
    assert weights.shape == (3, 13, 3)


class _StepCountingSession(Session):
    """Cheapest possible session: the benchmark isolates engine+channel cost."""

    def __init__(self, index, trace):
        self.client = f"client-{index}"
        self.trace = trace
        self.steps = 0

    def transmit(self, clock):
        self.steps += 1

    def finish(self):
        return self.steps


@pytest.mark.parametrize("n_clients", [1, 8, 32])
def test_perf_engine_channel_fanout(benchmark, n_clients):
    """Engine step cost while serving N clients on one shared grid.

    With more than one client the channel must be evaluated through the
    batched :meth:`MultiLinkChannel.evaluate_many` kernel — one fused call,
    not N scalar per-link loops — which the call accounting asserts.
    """
    trajectories = [
        WaypointWalkTrajectory(Point(5.0 + i, 5.0), area=(-40, -40, 40, 40), seed=10 + i).sample(
            5.0, 0.05
        )
        for i in range(n_clients)
    ]

    def run():
        channel = MultiLinkChannel.for_clients(Point(0, 0), n_clients, ChannelConfig(), seed=9)
        engine = SimulationEngine.for_clients(
            channel, trajectories, _StepCountingSession, sample_interval_s=0.1
        )
        return channel, engine.run()

    channel, results = benchmark(run)
    assert len(results) == n_clients
    assert all(steps == len(trajectories[0].times[::2]) for steps in results.values())
    if n_clients > 1:
        # Batched path: one evaluate_many sweep across all clients, and the
        # scalar per-link entry point never ran.
        assert channel.n_batched_calls == 1
        assert channel.last_batch_size == n_clients
        assert sum(link.n_evaluate_calls for link in channel.links) == 0
    else:
        # A single client short-circuits to the scalar link evaluation.
        assert channel.n_calls == 0
        assert channel.links[0].n_evaluate_calls == 1


#: Machine-readable scaling results, written to the repo root once all
#: parametrized client counts have run (consumed by CI as an artifact and
#: by the per-client cost regression gate below).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine_scaling.json"
_SCALING_CLIENT_COUNTS = (1, 8, 32, 128, 512, 1024)
_SCALING_N_STEPS = 60
_SCALING_GRID_DT_S = 0.5
#: CI regression gate: per-client step cost at N=512 must stay within this
#: factor of the N=8 figure (sub-linear scaling — the fixed per-step engine
#: overhead amortizes and the classifier work runs as one batched kernel).
SCALING_GATE_LIMIT = 1.25
_scaling_results = {}


def _sensing_fleet(n_clients):
    """Mostly-static fleet with every 8th client walking (ToF active)."""
    rng = np.random.default_rng(17)
    n_steps, k = _SCALING_N_STEPS, 16
    base = np.abs(rng.normal(1.0, 0.3, (n_clients, k))) + 0.05
    drift = np.full((n_clients, 1), 0.01)
    drift[::8] = 0.2
    slab = np.abs(
        base[None, :, :]
        + np.cumsum(drift[None, :, :] * rng.normal(0, 1, (n_steps, n_clients, k)), axis=0)
    ) + 0.01
    csi_by_client = [[slab[s, i] for s in range(n_steps)] for i in range(n_clients)]
    duration_s = n_steps * _SCALING_GRID_DT_S
    walk_t = np.arange(0.0, duration_s, 0.02)
    empty = np.empty(0)
    tof_times, tof_readings = [], []
    for i in range(n_clients):
        if i % 8 == 0:
            tof_times.append(walk_t)
            tof_readings.append(200.0 + 0.6 * walk_t)
        else:
            tof_times.append(empty)
            tof_readings.append(empty)
    return csi_by_client, tof_times, tof_readings


def _record_scaling_result(n_clients, benchmark):
    entry = {"n_clients": n_clients, "n_steps": _SCALING_N_STEPS}
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is not None:
        entry["mean_s"] = float(stats.mean)
        entry["min_s"] = float(stats.min)
        entry["rounds"] = int(stats.rounds)
        entry["per_client_step_ms"] = float(
            stats.min / (_SCALING_N_STEPS * n_clients) * 1e3
        )
    _scaling_results[n_clients] = entry
    if all(n in _scaling_results for n in _SCALING_CLIENT_COUNTS):
        payload = {
            "benchmark": "engine_scaling_batched_sensing",
            "grid_dt_s": _SCALING_GRID_DT_S,
            "n_steps": _SCALING_N_STEPS,
            "gate_limit": SCALING_GATE_LIMIT,
            "results": [_scaling_results[n] for n in _SCALING_CLIENT_COUNTS],
        }
        BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="module")
def sensing_fleets():
    cache = {}

    def build(n_clients):
        if n_clients not in cache:
            cache[n_clients] = _sensing_fleet(n_clients)
        return cache[n_clients]

    return build


@pytest.mark.parametrize("n_clients", list(_SCALING_CLIENT_COUNTS))
def test_perf_engine_scaling_batched_sensing(benchmark, sensing_fleets, n_clients):
    """Full sense→classify→adapt cost of an N-client cohort per engine run.

    One :class:`BatchedSensingSession` carries the whole fleet; each phase
    executes once per step over ``(N, ...)`` arrays rather than N times.
    The per-run stats feed ``BENCH_engine_scaling.json`` and the sub-linear
    per-client gate (:func:`test_engine_scaling_per_client_gate`).
    """
    csi_by_client, tof_times, tof_readings = sensing_fleets(n_clients)
    grid_times = np.arange(_SCALING_N_STEPS) * _SCALING_GRID_DT_S

    def run():
        classifier = BatchedMobilityClassifier(n_clients)
        engine = SimulationEngine(TimeGrid(grid_times))
        engine.add(
            BatchedSensingSession(classifier, csi_by_client, tof_times, tof_readings)
        )
        return engine.run()

    results = benchmark(run)
    _record_scaling_result(n_clients, benchmark)
    assert len(results) == n_clients
    # The first CSI sample only seeds the similarity baseline.
    assert all(len(estimates) == _SCALING_N_STEPS - 1 for estimates in results.values())


def _load_scaling_results():
    if all(n in _scaling_results for n in _SCALING_CLIENT_COUNTS):
        return _scaling_results
    if BENCH_JSON_PATH.exists():
        payload = json.loads(BENCH_JSON_PATH.read_text())
        return {entry["n_clients"]: entry for entry in payload.get("results", [])}
    return {}


def test_engine_scaling_per_client_gate():
    """CI regression gate: batching must keep per-client cost sub-linear.

    Per-client step cost at N=512 may not exceed ``SCALING_GATE_LIMIT``
    times the N=8 figure.  Reads the in-process sweep results when the
    benchmarks ran in this session, else the committed/uploaded
    ``BENCH_engine_scaling.json`` from a prior step.
    """
    results = _load_scaling_results()
    if not ({8, 512} <= set(results)):
        pytest.skip("scaling sweep has not run (no in-process results, no JSON)")
    small = results[8].get("per_client_step_ms")
    large = results[512].get("per_client_step_ms")
    if small is None or large is None:
        pytest.skip("sweep ran without timing stats (--benchmark-disable)")
    assert large <= SCALING_GATE_LIMIT * small, (
        f"per-client step cost regressed: N=512 at {large:.4f} ms/client-step vs "
        f"N=8 at {small:.4f} ms/client-step (limit {SCALING_GATE_LIMIT}x)"
    )
