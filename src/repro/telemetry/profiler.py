"""Wall-clock profiling: per-phase and per-channel-call time accounting.

The engine feeds phase timings (one measurement per phase per step) and
the channel layer feeds per-evaluation timings; :class:`RunProfile`
accumulates both so a finished run can answer "where did the wall time
go" without any external profiler.
"""

from __future__ import annotations

from typing import Dict


class RunProfile:
    """Accumulated wall time per engine phase and per channel operation."""

    def __init__(self) -> None:
        self.phase_s: Dict[str, float] = {}
        self.phase_measurements: Dict[str, int] = {}
        #: Client-steps per phase: each measurement contributes the number
        #: of clients the phase served that step, so batched cohort phases
        #: (one call serving N clients) attribute cost per client instead
        #: of hiding the fan-in.  ``per_client_phase_s`` divides by this.
        self.phase_client_steps: Dict[str, int] = {}
        self.channel_s: Dict[str, float] = {}
        self.channel_calls: Dict[str, int] = {}

    def add_phase(self, phase: str, elapsed_s: float, n_clients: int = 1) -> None:
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + elapsed_s
        self.phase_measurements[phase] = self.phase_measurements.get(phase, 0) + 1
        self.phase_client_steps[phase] = self.phase_client_steps.get(phase, 0) + n_clients

    def per_client_phase_s(self, phase: str) -> float:
        """Mean wall time one client's share of ``phase`` cost per step."""
        client_steps = self.phase_client_steps.get(phase, 0)
        if client_steps == 0:
            return 0.0
        return self.phase_s.get(phase, 0.0) / client_steps

    def add_channel(self, op: str, elapsed_s: float) -> None:
        self.channel_s[op] = self.channel_s.get(op, 0.0) + elapsed_s
        self.channel_calls[op] = self.channel_calls.get(op, 0) + 1

    @property
    def total_phase_s(self) -> float:
        return sum(self.phase_s.values())

    @property
    def total_channel_s(self) -> float:
        return sum(self.channel_s.values())
