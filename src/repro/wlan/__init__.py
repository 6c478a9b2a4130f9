"""WLAN-level substrate: floorplans, multi-AP channels, traffic models,
and the integrated mobility-aware stack (Section 7).

A protocol run is sessions on a :class:`repro.sim.SimulationEngine`:
add a :class:`StackSession` per stack arm (or a :class:`SchedulingSession`
per AP) to an engine over ``TimeGrid(multi.times)`` and call ``run()``;
arms co-run on one engine under distinct ``client=`` labels.
"""

from repro.channel.model import MultiLinkChannel
from repro.sim import Session, SimulationEngine
from repro.wlan.floorplan import Floorplan, default_office_floorplan, grid_floorplan
from repro.wlan.multilink import MultiApChannel, MultiApTraces
from repro.wlan.scheduler import SchedulingSession
from repro.wlan.stack import (
    StackComponents,
    StackRunResult,
    StackSession,
    default_stack,
    mobility_aware_stack,
)
from repro.wlan.traffic import TcpModel

__all__ = [
    "Floorplan",
    "MultiApChannel",
    "MultiApTraces",
    "MultiLinkChannel",
    "SchedulingSession",
    "Session",
    "SimulationEngine",
    "StackComponents",
    "StackRunResult",
    "StackSession",
    "TcpModel",
    "default_office_floorplan",
    "default_stack",
    "grid_floorplan",
    "mobility_aware_stack",
]
