"""One ray-sum kernel: a link's trace does not depend on how it is evaluated.

Every channel evaluation — :meth:`LinkChannel.evaluate`, a
:class:`MultiLinkChannel` batch, mixed-shape links and the engine's
single-client build — runs through the same kernel, so a link's trace is
bit-identical whichever way it is evaluated.
"""

import numpy as np
import pytest

from repro.channel.config import ChannelConfig
from repro.channel.model import LinkChannel, MultiLinkChannel
from repro.mobility.trajectory import WaypointWalkTrajectory
from repro.sim import Session, SimulationEngine
from repro.util.geometry import Point

AP = Point(0.0, 0.0)
N_LINKS = 8
TRACE_FIELDS = (
    "times",
    "distances_m",
    "rssi_dbm",
    "snr_db",
    "fading_db",
    "doppler_hz",
    "mimo_condition_db",
    "effective_snr_db",
    "h",
)


def _walks(n, seconds=4.0, dt=0.05):
    return [
        WaypointWalkTrajectory(
            Point(4.0 + 1.5 * i, 3.0), area=(-30, -30, 30, 30), seed=40 + i
        ).sample(seconds, dt)
        for i in range(n)
    ]


def _links(configs):
    """Fresh links, link ``i`` seeded with ``100 + i`` (twins share seeds)."""
    return [LinkChannel(AP, config, seed=100 + i) for i, config in enumerate(configs)]


def assert_same_trace(got, want):
    for name in TRACE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("include_h", [True, False])
def test_link_trace_is_identical_alone_batched_and_direct(include_h):
    walks = _walks(N_LINKS)
    times = walks[0].times
    configs = [ChannelConfig()] * N_LINKS
    batch = MultiLinkChannel(_links(configs))
    direct = _links(configs)
    alone = [MultiLinkChannel([link]) for link in _links(configs)]
    # Two consecutive windows: the second continues each link's state.
    for window in (slice(0, 40), slice(40, None)):
        positions = [walk.positions[window] for walk in walks]
        batched = batch.evaluate_many(times[window], positions, include_h=include_h)
        assert batch.last_batch_size == N_LINKS
        for i in range(N_LINKS):
            (single,) = alone[i].evaluate_many(
                times[window], [positions[i]], include_h=include_h
            )
            one = direct[i].evaluate(times[window], positions[i], include_h=include_h)
            assert (batched[i].h is not None) == include_h
            assert_same_trace(batched[i], single)
            assert_same_trace(batched[i], one)


def test_links_split_across_kernel_calls_match_their_lone_traces():
    # 40 samples per link and 100-sample chunks: two links per kernel call.
    walks = _walks(N_LINKS, seconds=2.0)
    times = walks[0].times
    positions = [walk.positions for walk in walks]
    configs = [ChannelConfig()] * N_LINKS
    traces = MultiLinkChannel(_links(configs)).evaluate_many(
        times, positions, include_h=True, chunk_size=100
    )
    for i, twin in enumerate(_links(configs)):
        want = twin.evaluate(times, positions[i], include_h=True, chunk_size=100)
        assert_same_trace(traces[i], want)


def test_mixed_shape_links_match_their_lone_traces():
    configs = [ChannelConfig(n_rx=n_rx) for n_rx in (1, 2, 3, 2)]
    walks = _walks(len(configs))
    times = walks[0].times
    positions = [walk.positions for walk in walks]
    mixed = MultiLinkChannel(_links(configs))
    traces = mixed.evaluate_many(times, positions, include_h_for=[0, 2])
    for i, twin in enumerate(_links(configs)):
        want = twin.evaluate(times, positions[i], include_h=i in (0, 2))
        assert_same_trace(traces[i], want)
    assert [trace.h.shape[-1] for trace in (traces[0], traces[2])] == [1, 3]


class _TraceSession(Session):
    def __init__(self, index, trace):
        self.client = f"client-{index}"
        self.trace = trace


def test_single_client_engine_build_matches_a_direct_evaluation():
    (walk,) = _walks(1)
    channel = MultiLinkChannel.for_clients(AP, 1, seed=7)
    engine = SimulationEngine.for_clients(
        channel, [walk], _TraceSession, sample_interval_s=0.1, include_h=True
    )
    (session,) = engine.sessions
    (twin,) = MultiLinkChannel.for_clients(AP, 1, seed=7).links
    want = twin.evaluate(walk.times[::2], walk.positions[::2], include_h=True)
    assert_same_trace(session.trace, want)
    assert channel.n_calls == 1 and channel.last_batch_size == 1
