"""Channel model configuration.

Defaults mirror the paper's experimental setup (Section 2.1): 5.825 GHz
carrier, 40 MHz-capable 802.11n link, HP MSM 460 AP with 3 transmit antennas,
Samsung Galaxy S5 client with 2 antennas.  CSI is reported for 52 data
subcarriers of a 20 MHz channel, matching the Atheros AR9390 export the
paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.units import noise_floor_dbm, wavelength

#: OFDM subcarrier spacing for 802.11a/n, in Hz.
SUBCARRIER_SPACING_HZ = 312_500.0


@dataclass(frozen=True)
class ChannelConfig:
    """Static parameters of a simulated AP-client link."""

    carrier_hz: float = 5.825e9
    bandwidth_hz: float = 40e6
    n_subcarriers: int = 52
    n_tx: int = 3
    n_rx: int = 2
    n_paths: int = 14
    rician_k_db: float = 4.0
    rms_delay_spread_s: float = 60e-9
    tx_power_dbm: float = 18.0
    noise_figure_db: float = 7.0
    pathloss_exponent_near: float = 2.0
    pathloss_exponent_far: float = 4.2
    pathloss_breakpoint_m: float = 5.0
    shadowing_sigma_db: float = 5.0
    shadowing_decorrelation_m: float = 3.5
    #: CSI estimation SNR offset: measured CSI = H + noise at (snr - offset).
    #: Negative because channel estimation averages over the HT-LTF training
    #: symbols, so the estimate is cleaner than a single data sample.
    csi_estimation_penalty_db: float = -10.0
    #: Residual channel dynamics in a quiet room: phase diffusion rate of
    #: every ray, in rad^2/s.  Keeps static CSI similarity just below 1.
    residual_phase_diffusion: float = 0.003
    #: Residual Doppler bandwidth used for staleness modelling when static.
    residual_doppler_hz: float = 0.15

    def __post_init__(self) -> None:
        if self.n_subcarriers < 2:
            raise ValueError("need at least 2 subcarriers")
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("antenna counts must be positive")
        if self.n_paths < 1:
            raise ValueError("need at least one propagation path")
        if self.rms_delay_spread_s <= 0:
            raise ValueError("delay spread must be positive")

    @property
    def wavelength_m(self) -> float:
        return wavelength(self.carrier_hz)

    @property
    def noise_floor_dbm(self) -> float:
        return noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db)

    @property
    def rician_k_linear(self) -> float:
        return float(10.0 ** (self.rician_k_db / 10.0))

    def subcarrier_offsets_hz(self) -> np.ndarray:
        """Baseband frequency offsets of the reported data subcarriers.

        Symmetric around DC with the DC/guard gap of the 20 MHz HT layout
        (26 subcarriers either side, indices +-1..26 relative to centre).
        """
        half = self.n_subcarriers // 2
        negative = np.arange(-half, 0)
        positive = np.arange(1, self.n_subcarriers - half + 1)
        indices = np.concatenate([negative, positive])
        return indices * SUBCARRIER_SPACING_HZ

    def doppler_hz(self, speed_mps: float) -> float:
        """Maximum Doppler shift for a given device speed."""
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        return speed_mps / self.wavelength_m


#: A second common configuration: 20 MHz legacy-width channel.
CONFIG_20MHZ = ChannelConfig(bandwidth_hz=20e6)
