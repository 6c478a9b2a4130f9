"""Infrastructure-side neighbour ToF headings (the controller's roaming input).

Every AP tracks the client's ToF trend on one shared
:class:`repro.core.batched.BatchedToFTrendDetector`; both the roaming and
the integrated-stack sessions feed it through
:class:`repro.roaming.base.NeighborToF`.
"""

import numpy as np
import pytest

from repro.channel.config import ChannelConfig
from repro.core.batched import BatchedToFTrendDetector
from repro.core.classifier import ClassifierConfig
from repro.core.tof_trend import ToFTrendConfig
from repro.mobility.modes import Heading
from repro.mobility.scenarios import macro_scenario
from repro.roaming.base import NeighborToF
from repro.roaming.schemes import ControllerRoaming
from repro.roaming.simulator import RoamingSession
from repro.sim import Session, SimulationEngine, TimeGrid
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel
from repro.wlan.stack import StackSession, mobility_aware_stack

TIME_AWARE = ToFTrendConfig(time_aware=True)


@pytest.fixture(scope="module")
def multi():
    scenario = macro_scenario(Point(6.0, 6.0), area=(2.0, 2.0, 38.0, 23.0), seed=21)
    trajectory = scenario.sample(15.0, 0.02)
    channel = MultiApChannel(default_office_floorplan(), ChannelConfig(tx_power_dbm=8.0), seed=21)
    return channel.evaluate(trajectory, sample_interval_s=0.1, include_h=True)


class _HeadingProbe(Session):
    """Records every AP's neighbour heading after each step's sensing."""

    client = "probe"

    def __init__(self, session: Session) -> None:
        self.session = session
        self.step_starts = []
        self.headings = []

    def classify(self, clock):
        neighbors = self.session._sim.neighbors
        self.step_starts.append(clock.start_s)
        self.headings.append([neighbors.heading(ap) for ap in range(neighbors.detector.n)])


def _reference_headings(neighbors: NeighborToF, step_starts):
    """A standalone time-aware detector fed the same ``(time, reading)`` stream."""
    n_aps = len(neighbors.readings)
    detector = BatchedToFTrendDetector(n_aps, TIME_AWARE)
    cursor = 0
    headings = []
    for start_s in step_starts:
        while cursor < len(neighbors.times) and neighbors.times[cursor] <= start_s:
            time_s = float(neighbors.times[cursor])
            for ap in range(n_aps):
                detector.push_one(ap, float(neighbors.readings[ap, cursor]), time_s=time_s)
            cursor += 1
        headings.append([detector.trend_of(ap).heading for ap in range(n_aps)])
    return headings


@pytest.mark.parametrize(
    "build",
    [
        lambda multi, cfg: RoamingSession(
            multi, ControllerRoaming(), classifier_config=cfg, seed=4
        ),
        lambda multi, cfg: StackSession(
            multi, mobility_aware_stack(), classifier_config=cfg, seed=4
        ),
    ],
    ids=["roaming", "stack"],
)
def test_time_aware_neighbour_headings(multi, build):
    """A time-aware ToF config runs on every path, neighbours included."""
    session = build(multi, ClassifierConfig(tof=TIME_AWARE))
    probe = _HeadingProbe(session)
    engine = SimulationEngine(TimeGrid(multi.times))
    engine.add(session)
    engine.add(probe)
    results = engine.run()
    assert len(results[session.client].goodput_mbps) == len(multi.times)
    expected = _reference_headings(session._sim.neighbors, probe.step_starts)
    assert probe.headings == expected
    assert any(h != Heading.NONE for row in probe.headings for h in row)


def test_advance_feeds_each_due_reading_once():
    times = np.arange(10) * 0.02
    readings = np.tile(np.arange(10, dtype=float), (3, 1))
    config = ToFTrendConfig(sample_interval_s=0.02, median_period_s=0.06)  # 3-reading medians
    neighbors = NeighborToF(times, readings, config)
    assert neighbors.advance(0.05) == range(0, 3)
    assert neighbors.detector.medians_of(2) == [1.0]
    assert neighbors.advance(0.05) == range(3, 3)
    assert neighbors.advance(-1.0) == range(3, 3)
    assert neighbors.advance(1.0) == range(3, 10)
    assert neighbors.detector.medians_of(2) == [1.0, 4.0, 7.0]
