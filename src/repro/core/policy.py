"""The Table-2 policy: per-mobility-mode protocol parameters.

Table 2 of the paper summarises what each protocol does in each mobility
state.  All four mobility-aware protocols consume this single table, so the
policy can be swept and ablated in one place.

Note on fidelity: the archived full text garbles several Table-2 digits
(OCR dropped zeros).  The values below follow the unambiguous statements in
the body text — 8 ms aggregation for static/environmental vs 2 ms for
device mobility (Section 5.1), retries "once or twice" before rate
reduction except when moving away (Section 4.2), a short probe interval
towards / long away (Section 4.2), CSI feedback from 2000 ms (static) down
to tens of ms (macro) with a 200 ms mobility-oblivious default (Section
6.3) — and use the paper's orders of magnitude where a digit is ambiguous.
Each reconstructed value is a named field, so re-tuning is one edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, ItemsView, Tuple

from repro.mobility.modes import Heading, MobilityMode


@dataclass(frozen=True)
class MobilityPolicy:
    """Protocol parameters for one (mode, heading) state — one Table-2 column."""

    #: Should the controller pre-compute candidate APs for a roam?
    roaming_preparation: bool
    #: Should the controller actively push the client to a better AP?
    encourage_roaming: bool
    #: Atheros RA probe interval (how often to sample a higher bit-rate).
    probe_interval_ms: float
    #: Atheros RA PER smoothing factor (alpha in Eq. 2; larger forgets faster).
    per_smoothing_factor: float
    #: Retries at the current rate after a failed frame before stepping down.
    rate_retries: int
    #: Maximum A-MPDU aggregation time.
    aggregation_limit_ms: float
    #: SU beamforming CSI (compressed V) feedback period.
    su_bf_feedback_ms: float
    #: MU-MIMO CSI feedback period.
    mu_mimo_feedback_ms: float

    def __post_init__(self) -> None:
        if not 0.0 < self.per_smoothing_factor <= 1.0:
            raise ValueError("smoothing factor must be in (0, 1]")
        if self.probe_interval_ms <= 0 or self.aggregation_limit_ms <= 0:
            raise ValueError("intervals must be positive")
        if self.su_bf_feedback_ms <= 0 or self.mu_mimo_feedback_ms <= 0:
            raise ValueError("feedback periods must be positive")
        if self.rate_retries < 0:
            raise ValueError("retries must be non-negative")


PolicyKey = Tuple[MobilityMode, Heading]


class PolicyTable:
    """Lookup from classifier output to protocol parameters."""

    def __init__(self, entries: Dict[PolicyKey, MobilityPolicy]) -> None:
        required = [
            (MobilityMode.STATIC, Heading.NONE),
            (MobilityMode.ENVIRONMENTAL, Heading.NONE),
            (MobilityMode.MICRO, Heading.NONE),
            (MobilityMode.MACRO, Heading.AWAY),
            (MobilityMode.MACRO, Heading.TOWARDS),
        ]
        for key in required:
            if key not in entries:
                raise ValueError(f"policy table missing entry for {key}")
        self._entries = dict(entries)

    def lookup(self, mode: MobilityMode, heading: Heading = Heading.NONE) -> MobilityPolicy:
        """Policy for a classifier decision.

        Macro mobility with an undetermined heading (trend window still
        filling) conservatively uses the *moving away* column: it is the
        safe choice for rate control and aggregation.
        """
        if mode == MobilityMode.MACRO:
            if heading == Heading.NONE:
                heading = Heading.AWAY
            return self._entries[(mode, heading)]
        return self._entries[(mode, Heading.NONE)]

    def items(self) -> ItemsView[PolicyKey, MobilityPolicy]:
        return self._entries.items()


def default_policy_table() -> PolicyTable:
    """The reconstructed Table 2."""
    return PolicyTable(
        {
            (MobilityMode.STATIC, Heading.NONE): MobilityPolicy(
                roaming_preparation=False,
                encourage_roaming=False,
                probe_interval_ms=100.0,
                per_smoothing_factor=1.0 / 16.0,
                rate_retries=2,
                aggregation_limit_ms=8.0,
                su_bf_feedback_ms=2000.0,
                mu_mimo_feedback_ms=2000.0,
            ),
            (MobilityMode.ENVIRONMENTAL, Heading.NONE): MobilityPolicy(
                roaming_preparation=False,
                encourage_roaming=False,
                probe_interval_ms=100.0,
                per_smoothing_factor=1.0 / 12.0,
                rate_retries=2,
                aggregation_limit_ms=8.0,
                su_bf_feedback_ms=500.0,
                mu_mimo_feedback_ms=100.0,
            ),
            (MobilityMode.MICRO, Heading.NONE): MobilityPolicy(
                roaming_preparation=False,
                encourage_roaming=False,
                probe_interval_ms=100.0,
                per_smoothing_factor=1.0 / 4.0,
                rate_retries=1,
                aggregation_limit_ms=2.0,
                su_bf_feedback_ms=100.0,
                mu_mimo_feedback_ms=20.0,
            ),
            (MobilityMode.MACRO, Heading.AWAY): MobilityPolicy(
                roaming_preparation=True,
                encourage_roaming=True,
                probe_interval_ms=100.0,
                per_smoothing_factor=1.0 / 8.0,
                rate_retries=0,
                aggregation_limit_ms=2.0,
                su_bf_feedback_ms=20.0,
                mu_mimo_feedback_ms=20.0,
            ),
            (MobilityMode.MACRO, Heading.TOWARDS): MobilityPolicy(
                roaming_preparation=False,
                encourage_roaming=False,
                probe_interval_ms=20.0,
                per_smoothing_factor=1.0 / 3.0,
                rate_retries=2,
                aggregation_limit_ms=2.0,
                su_bf_feedback_ms=20.0,
                mu_mimo_feedback_ms=20.0,
            ),
        }
    )
