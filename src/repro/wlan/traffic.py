"""Traffic model: a simplified TCP downlink.

The paper evaluates with iperf UDP (roaming, overall system) and download
TCP (rate adaptation, aggregation, beamforming).  Saturated UDP goodput is
the MAC goodput timeline itself.  For reproduction shape, the key TCP
effects are: (1) acknowledgement/protocol overhead, and
(2) throughput collapse across outages (handoffs) followed by a recovery
ramp (slow start) — TCP cannot instantly refill the pipe after a gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TcpModel:
    """Simplified long-lived TCP download over a wireless timeline.

    ``apply`` maps a per-interval MAC goodput timeline to a per-interval
    TCP goodput timeline:

    * everything is scaled by ``protocol_efficiency`` (TCP/IP headers and
      the upstream ACK stream share the medium);
    * after any interval with (near-)zero capacity — a handoff or deep
      outage — throughput ramps back linearly over ``recovery_s`` (loss
      recovery + slow start).
    """

    protocol_efficiency: float = 0.92
    outage_threshold_mbps: float = 0.5
    recovery_s: float = 1.0

    def apply(self, times_s: np.ndarray, goodput_mbps: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        goodput = np.asarray(goodput_mbps, dtype=float)
        if times.shape != goodput.shape:
            raise ValueError("times and goodput must align")
        if times.size == 0:
            raise ValueError("empty timeline")
        result = goodput * self.protocol_efficiency
        ramp = 1.0
        last_t = times[0]
        for i, t in enumerate(times):
            dt = t - last_t
            last_t = t
            if goodput[i] <= self.outage_threshold_mbps:
                ramp = 0.0
            else:
                ramp = min(1.0, ramp + dt / max(self.recovery_s, 1e-9))
            result[i] *= ramp
        return result

    def mean_throughput_mbps(self, times_s: np.ndarray, goodput_mbps: np.ndarray) -> float:
        return float(np.mean(self.apply(times_s, goodput_mbps)))
