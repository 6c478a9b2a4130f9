"""The 802.11n MCS table (MCS 0-15: 1 and 2 spatial streams).

Data rates follow IEEE 802.11n-2009 for 20/40 MHz channels with the long
(800 ns) guard interval; the short-GI rates are the long-GI rates times
10/9.  ``min_snr_db`` is the approximate SNR at which a 1000-byte packet
achieves ~10% PER over a frequency-selective indoor channel — the anchor
point of the :mod:`repro.phy.error` model, consistent with published
measurements on Atheros hardware (e.g. Halperin et al., "Predictable 802.11
packet delivery from wireless channel measurements").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class MCS:
    """One modulation-and-coding scheme."""

    index: int
    streams: int
    modulation: str
    bits_per_symbol: int  # per subcarrier per stream
    coding_rate: float
    rate_20mhz_mbps: float
    rate_40mhz_mbps: float
    #: SNR (dB) for ~10% PER at 1000 B, single stream equivalent.
    min_snr_db: float

    def rate_mbps(self, bandwidth_hz: float = 40e6, short_gi: bool = False) -> float:
        """PHY data rate for the given channel width and guard interval."""
        if bandwidth_hz >= 40e6:
            base = self.rate_40mhz_mbps
        else:
            base = self.rate_20mhz_mbps
        return base * (10.0 / 9.0) if short_gi else base

    def rate_bps(self, bandwidth_hz: float = 40e6, short_gi: bool = False) -> float:
        return self.rate_mbps(bandwidth_hz, short_gi) * 1e6

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"MCS{self.index}({self.modulation} r={self.coding_rate} x{self.streams})"


def _mcs(index, streams, modulation, bits, coding, r20, r40, snr) -> MCS:
    return MCS(index, streams, modulation, bits, coding, r20, r40, snr)


#: All single- and double-stream HT MCS entries.
MCS_TABLE: List[MCS] = [
    _mcs(0, 1, "BPSK", 1, 1 / 2, 6.5, 13.5, 3.0),
    _mcs(1, 1, "QPSK", 2, 1 / 2, 13.0, 27.0, 6.0),
    _mcs(2, 1, "QPSK", 2, 3 / 4, 19.5, 40.5, 8.5),
    _mcs(3, 1, "16-QAM", 4, 1 / 2, 26.0, 54.0, 11.5),
    _mcs(4, 1, "16-QAM", 4, 3 / 4, 39.0, 81.0, 15.0),
    _mcs(5, 1, "64-QAM", 6, 2 / 3, 52.0, 108.0, 19.0),
    _mcs(6, 1, "64-QAM", 6, 3 / 4, 58.5, 121.5, 20.5),
    _mcs(7, 1, "64-QAM", 6, 5 / 6, 65.0, 135.0, 22.5),
    _mcs(8, 2, "BPSK", 1, 1 / 2, 13.0, 27.0, 6.0),
    _mcs(9, 2, "QPSK", 2, 1 / 2, 26.0, 54.0, 9.0),
    _mcs(10, 2, "QPSK", 2, 3 / 4, 39.0, 81.0, 11.5),
    _mcs(11, 2, "16-QAM", 4, 1 / 2, 52.0, 108.0, 14.5),
    _mcs(12, 2, "16-QAM", 4, 3 / 4, 78.0, 162.0, 18.0),
    _mcs(13, 2, "64-QAM", 6, 2 / 3, 104.0, 216.0, 22.0),
    _mcs(14, 2, "64-QAM", 6, 3 / 4, 117.0, 243.0, 23.5),
    _mcs(15, 2, "64-QAM", 6, 5 / 6, 130.0, 270.0, 25.5),
]

_BY_INDEX: Dict[int, MCS] = {m.index: m for m in MCS_TABLE}


def mcs_by_index(index: int) -> MCS:
    """Lookup an MCS entry, raising on unknown indices."""
    try:
        return _BY_INDEX[index]
    except KeyError:
        raise ValueError(f"unknown MCS index {index}") from None


def atheros_usable_mcs() -> Tuple[int, ...]:
    """The rate ladder the Atheros RA walks (paper Section 4.1).

    "The Atheros RA skips the MCS 5-7 for single stream and MCS 8 for
    double stream to maintain PER monotonicity" — the remaining indices,
    **ordered by data rate** (MCS 9 at 54 Mbps precedes MCS 4 at 81 Mbps),
    form a ladder where PER is monotone in position.
    """
    return (0, 1, 2, 3, 9, 4, 10, 11, 12, 13, 14, 15)


def single_stream_mcs() -> Tuple[int, ...]:
    """MCS 0-7: the ladder for rank-one links (TxBF, single-antenna rx)."""
    return (0, 1, 2, 3, 4, 5, 6, 7)
