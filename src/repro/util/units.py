"""Unit conversions and physical constants."""

from __future__ import annotations

import numpy as np

#: Speed of light in metres per second (used by ToF <-> distance conversion).
SPEED_OF_LIGHT = 299_792_458.0

#: Thermal noise power spectral density at 290 K, in dBm/Hz.
THERMAL_NOISE_DBM_PER_HZ = -174.0


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 7.0) -> float:
    """Thermal noise floor for a receiver of the given bandwidth.

    ``noise_figure_db`` models receiver imperfection; 7 dB is a typical
    figure for commodity 802.11 chipsets.
    """
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


def wavelength(frequency_hz: float) -> float:
    """Carrier wavelength in metres."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz
