"""Oracle rate extraction — the optimal rate for the true instantaneous SNR.

Used for the Fig. 8 optimal-rate dynamics study (the paper extracts the
optimal bit-rate from traces, "similar to [9]").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.model import ChannelTrace
from repro.phy.error import ErrorModel
from repro.phy.mcs import atheros_usable_mcs


def optimal_rate_series(
    trace: ChannelTrace,
    error_model: ErrorModel = ErrorModel(),
    ladder: Optional[Sequence[int]] = None,
    bandwidth_hz: float = 40e6,
) -> np.ndarray:
    """Optimal MCS index at every trace sample (Fig. 8(b)/(c) series)."""
    ladder = tuple(ladder or atheros_usable_mcs())
    out = np.empty(len(trace), dtype=int)
    for i in range(len(trace)):
        out[i] = error_model.best_mcs(
            float(trace.snr_db[i]),
            mimo_condition_db=float(trace.mimo_condition_db[i]),
            bandwidth_hz=bandwidth_hz,
            candidates=ladder,
        )
    return out


def optimal_rate_hold_times(
    trace: ChannelTrace,
    error_model: ErrorModel = ErrorModel(),
    ladder: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Durations (seconds) for which the optimal rate stays unchanged.

    The quantity whose CDF is Fig. 8(a): how long a chosen bit-rate remains
    optimal before a rate change would be needed.
    """
    series = optimal_rate_series(trace, error_model, ladder)
    dt = trace.dt
    holds = []
    run = 1
    for i in range(1, len(series)):
        if series[i] == series[i - 1]:
            run += 1
        else:
            holds.append(run * dt)
            run = 1
    holds.append(run * dt)
    return np.asarray(holds)
