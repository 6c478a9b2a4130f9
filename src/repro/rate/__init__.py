"""Rate adaptation: Atheros RA, the mobility-aware variant, and baselines."""

from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.base import LadderMixin, PhyFeedback, RateAdapter
from repro.rate.esnr import ESNRRate
from repro.rate.mobility_aware import MobilityAwareAtherosRA
from repro.rate.oracle import optimal_rate_hold_times, optimal_rate_series
from repro.rate.rapidsample import HintAwareRateControl, RapidSample
from repro.rate.samplerate import SampleRate
from repro.rate.simulator import RateRunResult, simulate_rate_control
from repro.rate.softrate import SoftRate

__all__ = [
    "AtherosRateAdaptation",
    "ESNRRate",
    "HintAwareRateControl",
    "LadderMixin",
    "MobilityAwareAtherosRA",
    "PhyFeedback",
    "RapidSample",
    "RateAdapter",
    "RateRunResult",
    "SampleRate",
    "SoftRate",
    "optimal_rate_hold_times",
    "optimal_rate_series",
    "simulate_rate_control",
]
