"""CSI feedback encoding and airtime cost (paper Section 6).

"The CSI feedback packet may consist of a real and imaginary value
(quantized into up to 8 bits) for each subcarrier and transmit-receive
antenna pair. ... the feedback packet is typically transmitted at the
lowest bit-rate, consuming significant channel airtime."

This module computes the size and airtime of one feedback report, so the
beamforming/MU-MIMO simulators can charge the overhead of a chosen feedback
period — the central trade-off of Figs. 11 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mac.timing import MacTiming


@dataclass(frozen=True)
class CSIFeedbackConfig:
    """Format of one CSI feedback report."""

    n_subcarriers: int = 52
    n_tx: int = 3
    n_rx: int = 1
    bits_per_component: int = 8  # real and imaginary, 8 bits each
    header_bytes: int = 40  # MAC header + action-frame framing + MIMO control
    #: Rate the feedback frame is sent at (lowest basic rate, Mbps).
    feedback_rate_mbps: float = 6.0
    #: Airtime of the NDP/poll exchange that solicits the report.
    solicitation_overhead_s: float = 150e-6

    def __post_init__(self) -> None:
        if self.n_subcarriers < 1 or self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("dimensions must be positive")
        if self.bits_per_component < 1 or self.bits_per_component > 16:
            raise ValueError("bits per component must be in [1, 16]")
        if self.feedback_rate_mbps <= 0:
            raise ValueError("feedback rate must be positive")


def feedback_bytes(config: CSIFeedbackConfig = CSIFeedbackConfig()) -> int:
    """Size of one CSI report in bytes."""
    components = config.n_subcarriers * config.n_tx * config.n_rx * 2  # re + im
    payload_bits = components * config.bits_per_component
    return config.header_bytes + (payload_bits + 7) // 8


def feedback_airtime_s(
    config: CSIFeedbackConfig = CSIFeedbackConfig(),
    timing: MacTiming = None,
) -> float:
    """Total channel time consumed by one CSI feedback exchange."""
    if timing is None:
        timing = MacTiming()
    size = feedback_bytes(config)
    transmit = size * 8 / (config.feedback_rate_mbps * 1e6)
    return (
        config.solicitation_overhead_s
        + timing.sifs_s
        + timing.legacy_preamble_s
        + transmit
        + timing.sifs_s
        + timing.ack_duration_s
    )
