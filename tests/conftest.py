"""Shared fixtures for the test suite."""

import pytest

from repro.channel.config import ChannelConfig
from repro.channel.model import ChannelTrace, LinkChannel
from repro.mobility.environment import EnvironmentActivity, EnvironmentProcess
from repro.mobility.trajectory import StaticTrajectory, WaypointWalkTrajectory
from repro.util.geometry import Point


@pytest.fixture
def ap() -> Point:
    return Point(0.0, 0.0)


@pytest.fixture
def client() -> Point:
    return Point(10.0, 5.0)


@pytest.fixture
def channel_config() -> ChannelConfig:
    return ChannelConfig()


@pytest.fixture
def static_trace(ap, client, channel_config) -> ChannelTrace:
    """10 s of a static link at 50 ms resolution, with CSI."""
    trajectory = StaticTrajectory(client).sample(10.0, 0.05)
    link = LinkChannel(ap, channel_config, seed=42)
    return link.evaluate(trajectory.times, trajectory.positions, include_h=True)


@pytest.fixture
def walking_trace(ap, channel_config) -> ChannelTrace:
    """20 s of a waypoint walk at 50 ms resolution, with CSI."""
    trajectory = WaypointWalkTrajectory(
        Point(12.0, 4.0), area=(-30.0, -30.0, 30.0, 30.0), seed=7
    ).sample(20.0, 0.05)
    link = LinkChannel(ap, channel_config, seed=43)
    return link.evaluate(trajectory.times, trajectory.positions, include_h=True)


@pytest.fixture
def environmental_link(ap, client, channel_config):
    """A LinkChannel with a strong environmental process attached."""
    environment = EnvironmentProcess.from_activity(EnvironmentActivity.STRONG)
    return LinkChannel(ap, channel_config, environment=environment, seed=44)


