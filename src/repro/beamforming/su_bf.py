"""Single-user transmit beamforming with periodic CSI feedback (Section 6.1).

The AP solicits CSI from the client every feedback period, computes MRT
weights per subcarrier, and beamforms all data frames until the next
report.  Two opposing forces set the optimal period:

* **staleness** — under device mobility the channel rotates away from the
  weights within tens of ms, collapsing the array gain (a badly stale MRT
  weight is no better than a random antenna);
* **overhead** — each report burns airtime at the lowest rate, so feeding
  back every 20 ms from a static client only adds cost.

Rate control on the beamformed link uses stock Atheros RA, as in the
paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.beamforming.feedback import FeedbackScheduler
from repro.beamforming.precoding import beamforming_gain, mrt_weights
from repro.channel.model import ChannelTrace
from repro.channel.perturbations import trace_seed
from repro.core.hints import MobilityEstimate
from repro.mac.aggregation import FrameTransmitter
from repro.phy.csi_feedback import CSIFeedbackConfig, feedback_airtime_s
from repro.phy.mcs import single_stream_mcs
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.base import RateAdapter
from repro.rate.simulator import simulate_rate_control
from repro.util.rng import SeedLike, ensure_rng


@dataclass
class SuBeamformingResult:
    """Outcome of one SU-TxBF run."""

    throughput_mbps: float
    n_feedbacks: int
    mean_gain_db: float
    overhead_fraction: float
    gain_db_series: np.ndarray  # per-sample beamforming gain over open loop


def _single_stream_atheros() -> AtherosRateAdaptation:
    """Beamformed transmissions carry one stream: use the MCS 0-7 ladder."""
    return AtherosRateAdaptation(ladder=single_stream_mcs())


def simulate_su_beamforming(
    trace: ChannelTrace,
    scheduler: FeedbackScheduler,
    hints: Sequence[MobilityEstimate] = (),
    adapter_factory: Callable[[], RateAdapter] = _single_stream_atheros,
    feedback_config: Optional[CSIFeedbackConfig] = None,
    transmitter: Optional[FrameTransmitter] = None,
    seed: SeedLike = None,
) -> SuBeamformingResult:
    """Run beamformed downlink over ``trace`` with the given feedback policy.

    ``trace`` must carry ``h`` with one receive antenna: shape
    ``(N, K, n_tx, 1)``.
    """
    if trace.h is None:
        raise ValueError("SU beamforming needs CSI; evaluate the trace with include_h=True")
    if trace.h.shape[-1] != 1:
        raise ValueError("SU beamforming expects a single-receive-antenna trace")
    rng = ensure_rng(seed)
    h_true = trace.h[..., 0]  # (N, K, T)
    h_measured = trace.measured_csi(rng)[..., 0]

    if feedback_config is None:
        # The over-the-air report quantises every data subcarrier of the
        # 40 MHz channel (114), even though the research CSI export carries
        # 52 — the airtime cost follows the full report.
        feedback_config = CSIFeedbackConfig(
            n_subcarriers=114, n_tx=h_true.shape[2], n_rx=1, solicitation_overhead_s=250e-6
        )
    per_feedback_airtime = feedback_airtime_s(feedback_config)

    n = len(trace)
    scheduler.reset()
    gain_db = np.empty(n)
    overhead = np.empty(n)
    weights: Optional[np.ndarray] = None
    n_feedbacks = 0
    hint_index = 0

    for i in range(n):
        now = float(trace.times[i])
        while hint_index < len(hints) and hints[hint_index].time_s <= now:
            scheduler.update_hint(hints[hint_index])
            hint_index += 1
        if scheduler.due(now):
            weights = mrt_weights(h_measured[i])
            scheduler.mark(now)
            n_feedbacks += 1
        # Received power with the (possibly stale) weights, relative to the
        # per-antenna average power the trace's snr_db refers to.
        received = beamforming_gain(h_true[i], weights)
        reference = np.mean(np.abs(h_true[i]) ** 2)
        gain = np.mean(received) / max(reference, 1e-15)
        # Safety floor: even fully stale weights still deliver on one
        # effective antenna on average (gain 1); deep nulls are transient.
        gain_db[i] = 10.0 * np.log10(max(gain, 1e-3))
        overhead[i] = min(1.0, per_feedback_airtime / scheduler.period_s())

    beamformed = ChannelTrace(
        times=trace.times,
        distances_m=trace.distances_m,
        rssi_dbm=trace.rssi_dbm + gain_db,
        snr_db=trace.snr_db + gain_db,
        fading_db=trace.fading_db,
        doppler_hz=trace.doppler_hz,
        # The beamformed stream is rank one: a huge condition number keeps
        # the rate controller off the 2-stream MCSs.
        mimo_condition_db=np.full(n, 40.0),
        h=None,
    )
    adapter = adapter_factory()
    transmitter = transmitter or FrameTransmitter(seed=rng)
    # Perturbations (fading jitter, interference) are seeded from the
    # *underlying* trace, not the beamformed one: runs that differ only in
    # feedback policy see identical interference.
    run = simulate_rate_control(
        adapter,
        beamformed,
        transmitter=transmitter,
        hints=hints,
        perturbation_seed=trace_seed(trace.snr_db),
    )
    overhead_fraction = float(np.mean(overhead))
    return SuBeamformingResult(
        throughput_mbps=run.throughput_mbps * (1.0 - overhead_fraction),
        n_feedbacks=n_feedbacks,
        mean_gain_db=float(np.mean(gain_db)),
        overhead_fraction=overhead_fraction,
        gain_db_series=gain_db,
    )
