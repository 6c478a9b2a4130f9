"""The walk model shared by the roaming and integrated-stack sessions.

Both sessions run one :class:`repro.roaming.walk.ClientWalk`; its
``start`` rejects a grid or accelerometer truth that does not cover the
walk instead of returning uninitialised tails or failing mid-run.
"""

import numpy as np
import pytest

from repro.channel.config import ChannelConfig
from repro.mobility.scenarios import macro_scenario
from repro.roaming.base import RoamingContext
from repro.roaming.schemes import ControllerRoaming, SensorHintRoaming
from repro.roaming.simulator import RoamingSession
from repro.sim import SessionError, SimulationEngine, TimeGrid
from repro.util.geometry import Point
from repro.wlan.floorplan import default_office_floorplan
from repro.wlan.multilink import MultiApChannel
from repro.wlan.stack import StackSession, default_stack, mobility_aware_stack

SESSIONS = {
    "roaming": lambda multi, **kw: RoamingSession(multi, ControllerRoaming(), seed=2, **kw),
    "stack": lambda multi, **kw: StackSession(multi, mobility_aware_stack(), seed=2, **kw),
}


@pytest.fixture(scope="module")
def multi():
    scenario = macro_scenario(Point(6.0, 6.0), area=(2.0, 2.0, 38.0, 23.0), seed=3)
    channel = MultiApChannel(default_office_floorplan(), ChannelConfig(tx_power_dbm=8.0), seed=3)
    return channel.evaluate(scenario.sample(5.0, 0.02), sample_interval_s=0.1, include_h=True)


def _run(session, times):
    engine = SimulationEngine(TimeGrid(times))
    engine.add(session)
    return engine.run()[session.client]


def _start_error(session, times):
    with pytest.raises(SessionError, match="start") as excinfo:
        _run(session, times)
    assert isinstance(excinfo.value.__cause__, ValueError)
    return str(excinfo.value.__cause__)


@pytest.mark.parametrize("kind", sorted(SESSIONS))
class TestGridMustCoverTheWalk:
    def test_short_grid_is_rejected(self, multi, kind):
        message = _start_error(SESSIONS[kind](multi), multi.times[: len(multi.times) // 2])
        assert "does not match" in message

    def test_long_grid_is_rejected(self, multi, kind):
        dt = float(multi.times[1] - multi.times[0])
        longer = np.append(multi.times, multi.times[-1] + dt)
        message = _start_error(SESSIONS[kind](multi), longer)
        assert "does not match" in message


def test_short_accelerometer_truth_is_rejected(multi):
    truth = np.ones(len(multi.times) - 1, dtype=bool)
    session = RoamingSession(multi, SensorHintRoaming(), device_mobile_truth=truth, seed=2)
    assert "accelerometer" in _start_error(session, multi.times)


def test_oblivious_stack_never_senses(multi):
    session = StackSession(multi, default_stack(), seed=2)
    result = _run(session, multi.times)
    assert result.estimates == []
    assert session._sim.neighbors._cursor == 0  # no ToF reading was ever fed


def test_one_roaming_context_implementation():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    in_src = [c for c in subclasses(RoamingContext) if c.__module__.startswith("repro.")]
    assert [c.__module__ for c in in_src] == ["repro.roaming.walk"]
