"""Client roaming: the default scheme, sensor-hint roaming, and the
paper's controller-based mobility-aware roaming (Section 3).

A roaming run is a :class:`RoamingSession` per scheme on a
:class:`repro.sim.SimulationEngine` over ``TimeGrid(multi.times)``.
"""

from repro.roaming.base import HandoffEvent, RoamingContext, RoamingScheme
from repro.roaming.schemes import (
    ControllerRoaming,
    DefaultClientRoaming,
    SensorHintRoaming,
    StickToFirstAp,
)
from repro.roaming.simulator import RoamingRunResult, RoamingSession

__all__ = [
    "ControllerRoaming",
    "DefaultClientRoaming",
    "HandoffEvent",
    "RoamingContext",
    "RoamingRunResult",
    "RoamingScheme",
    "RoamingSession",
    "SensorHintRoaming",
    "StickToFirstAp",
]
