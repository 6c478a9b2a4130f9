"""The per-link channel model: CSI matrices, RSSI, SNR along a trajectory.

:class:`LinkChannel` owns all stochastic state of one AP-client link (ray
set, scatterer processes, shadowing) and evaluates the channel on a time
grid.  Consecutive :meth:`LinkChannel.evaluate` calls continue the same
realisation, so protocol simulations can alternate between decision-making
and channel evolution.

Mechanics, mapped to the paper's observations:

* **static** — ray phases only drift by the residual diffusion and CSI
  estimation noise, so consecutive CSI samples correlate above 0.98;
* **environmental** — a fraction of rays carries a scatterer-driven
  component (complex OU process); only part of the subcarrier pattern
  changes, so similarity settles between the two thresholds;
* **device motion** — every ray's phase rotates with displacement along its
  own arrival direction; half a wavelength of motion (~2.6 cm at 5.8 GHz)
  re-randomises the whole pattern, so similarity collapses below 0.7 for
  both micro and macro mobility (which is why ToF is needed to split them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.config import ChannelConfig
from repro.channel.paths import PathSet, draw_path_set, steering_vector
from repro.channel.propagation import ShadowingProcess, path_loss_db
from repro.mobility.environment import EnvironmentProcess
from repro.telemetry.recorder import NULL_RECORDER, Recorder
from repro.util.geometry import Point, heading_between
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs
from repro.util.units import SPEED_OF_LIGHT


@dataclass
class CSISample:
    """One CSI report: what the AP extracts from a single received packet."""

    time_s: float
    h: np.ndarray  # (K, n_tx, n_rx) complex channel estimate
    rssi_dbm: float
    snr_db: float
    distance_m: float


@dataclass
class ChannelTrace:
    """Channel evaluated on a regular time grid.

    ``h`` holds the *true* channel; measured CSI (with estimation noise) is
    produced by :meth:`measured_csi` so different consumers can draw
    independent noise realisations.
    """

    times: np.ndarray  # (N,)
    distances_m: np.ndarray  # (N,)
    rssi_dbm: np.ndarray  # (N,)
    snr_db: np.ndarray  # (N,)
    fading_db: np.ndarray  # (N,) small-scale power relative to path-loss mean
    doppler_hz: np.ndarray  # (N,) effective channel Doppler for staleness
    mimo_condition_db: np.ndarray  # (N,) ratio of the two strongest singular values
    h: Optional[np.ndarray] = None  # (N, K, n_tx, n_rx) complex64, if requested
    csi_estimation_penalty_db: float = 3.0
    #: (N,) frequency-selectivity-aware SNR (geometric band mean): what PER
    #: actually responds to.  Falls back to ``snr_db`` when absent.
    effective_snr_db: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("distances_m", "rssi_dbm", "snr_db", "fading_db", "doppler_hz", "mimo_condition_db"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length disagrees with times")
        if self.h is not None and len(self.h) != n:
            raise ValueError("h length disagrees with times")
        if self.effective_snr_db is not None and len(self.effective_snr_db) != n:
            raise ValueError("effective_snr_db length disagrees with times")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        if len(self.times) < 2:
            raise ValueError("trace too short to have a time step")
        return float(self.times[1] - self.times[0])

    def per_snr_db(self) -> np.ndarray:
        """The SNR series the error model should consume."""
        if self.effective_snr_db is not None:
            return self.effective_snr_db
        return self.snr_db

    def measured_csi(self, rng: SeedLike = None, smooth_subcarriers: int = 5) -> np.ndarray:
        """True channel plus CSI estimation noise (AWGN at SNR - penalty).

        ``smooth_subcarriers`` models the driver-side CSI conditioning of
        commodity chipsets: estimates are smoothed across neighbouring
        subcarriers (the channel is coherent over ~13 subcarriers at a
        60 ns delay spread, so a 5-tap average suppresses noise with
        negligible signal distortion).
        """
        if self.h is None:
            raise ValueError("trace was evaluated without h; pass include_h=True")
        generator = ensure_rng(rng)
        mean_power = np.mean(np.abs(self.h) ** 2, axis=(1, 2, 3), keepdims=True)
        est_snr = 10.0 ** ((self.snr_db - self.csi_estimation_penalty_db) / 10.0)
        noise_var = mean_power[:, 0, 0, 0] / np.maximum(est_snr, 1e-3)
        scale = np.sqrt(noise_var / 2.0)[:, None, None, None]
        noise = scale * (
            generator.standard_normal(self.h.shape) + 1j * generator.standard_normal(self.h.shape)
        )
        measured = self.h + noise.astype(np.complex64)
        if smooth_subcarriers > 1:
            half = smooth_subcarriers // 2
            padded = np.concatenate(
                [measured[:, :half][:, ::-1], measured, measured[:, -half:][:, ::-1]],
                axis=1,
            )
            k_count = measured.shape[1]
            acc = np.zeros_like(measured, dtype=np.complex128)
            for offset in range(smooth_subcarriers):
                acc += padded[:, offset : offset + k_count]
            measured = (acc / smooth_subcarriers).astype(np.complex64)
        return measured

    def sample(self, index: int) -> CSISample:
        if self.h is None:
            raise ValueError("trace was evaluated without h; pass include_h=True")
        return CSISample(
            time_s=float(self.times[index]),
            h=np.asarray(self.h[index]),
            rssi_dbm=float(self.rssi_dbm[index]),
            snr_db=float(self.snr_db[index]),
            distance_m=float(self.distances_m[index]),
        )


#: Alias used by protocol code that only consumes link quality, not CSI.
LinkQualityTrace = ChannelTrace


@dataclass
class _LinkEvalPlan:
    """Everything the ray-sum kernel needs for one link, precomputed.

    Splitting :meth:`LinkChannel.evaluate` into prepare → ray-sum → finish
    lets :class:`MultiLinkChannel` run the (dominant) ray-sum stage of many
    links as one kernel call while each link keeps its own stochastic state
    evolution.
    """

    times: np.ndarray
    distances: np.ndarray  # (N,)
    speeds: np.ndarray  # (N,)
    shadowing_db: np.ndarray  # (N,)
    blockage_db: np.ndarray  # (N,)
    ray_phasors: np.ndarray  # (N, P) complex
    freq_nlos: np.ndarray  # (P-1, K)
    freq_los: np.ndarray  # (N, K)
    tx_nlos: np.ndarray  # (P-1, T)
    rx_nlos: np.ndarray  # (P-1, R)
    tx_los: np.ndarray  # (N, T)
    rx_los: np.ndarray  # (N, R)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def k_count(self) -> int:
        return self.freq_nlos.shape[1]


def _raysum_batched(
    plans: Sequence[_LinkEvalPlan], include_h: Sequence[bool], chunk_size: int
):
    """The ray-sum kernel: every channel evaluation runs through it.

    The links in ``plans`` share one time grid and their array shapes
    (paths, subcarriers, antennas); a single link is a batch of one.  All
    per-link arrays are stacked on a leading link axis and contracted in
    one einsum per chunk, so the per-step cost stops scaling as C
    independent Python loops.  A link's outputs do not depend on the other
    links in the batch: they are bit-identical alone and batched.
    """
    c = len(plans)
    n = plans[0].n
    k_count = plans[0].k_count
    n_tx = plans[0].tx_los.shape[1]
    n_rx = plans[0].rx_los.shape[1]
    ray_nlos = np.stack([p.ray_phasors[:, 1:] for p in plans])  # (C, N, P-1)
    ray_los = np.stack([p.ray_phasors[:, 0] for p in plans])  # (C, N)
    freq_nlos = np.stack([p.freq_nlos for p in plans])  # (C, P-1, K)
    tx_nlos = np.stack([p.tx_nlos for p in plans])  # (C, P-1, T)
    rx_nlos = np.stack([p.rx_nlos for p in plans])  # (C, P-1, R)
    freq_los = np.stack([p.freq_los for p in plans])  # (C, N, K)
    tx_los = np.stack([p.tx_los for p in plans])  # (C, N, T)
    rx_los = np.stack([p.rx_los for p in plans])  # (C, N, R)

    fading = np.empty((c, n))
    selective = np.empty((c, n))
    condition_db = np.empty((c, n))
    h_stores = [
        np.empty((n, k_count, n_tx, n_rx), dtype=np.complex64) if want else None
        for want in include_h
    ]

    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        h_chunk = np.einsum(
            "cnp,cpk,cpt,cpr->cnktr",
            ray_nlos[:, start:stop],
            freq_nlos,
            tx_nlos,
            rx_nlos,
            optimize=True,
        )
        h_chunk += np.einsum(
            "cn,cnk,cnt,cnr->cnktr",
            ray_los[:, start:stop],
            freq_los[:, start:stop],
            tx_los[:, start:stop],
            rx_los[:, start:stop],
            optimize=True,
        )
        power = np.abs(h_chunk) ** 2
        fading[:, start:stop] = np.mean(power, axis=(2, 3, 4))
        # Frequency-selectivity-aware (geometric band mean) power: deep
        # notches pull it down, matching how PER reacts to fades.
        per_subcarrier = np.mean(power, axis=(3, 4))  # (C, chunk, K)
        selective[:, start:stop] = np.exp(
            np.mean(np.log(np.maximum(per_subcarrier, 1e-15)), axis=2)
        )
        narrowband = np.mean(h_chunk, axis=2)  # (C, chunk, T, R)
        singulars = np.linalg.svd(narrowband, compute_uv=False)  # (C, chunk, min(T,R))
        s1 = singulars[..., 0]
        s2 = singulars[..., 1] if singulars.shape[-1] > 1 else np.full_like(s1, 1e-9)
        condition_db[:, start:stop] = 20.0 * np.log10(
            np.maximum(s1, 1e-12) / np.maximum(s2, 1e-12)
        )
        for ci, store in enumerate(h_stores):
            if store is not None:
                store[start:stop] = h_chunk[ci].astype(np.complex64)

    return fading, selective, condition_db, h_stores


def _evaluate_plans(
    links: Sequence["LinkChannel"],
    plans: Sequence[_LinkEvalPlan],
    include_h: Sequence[bool],
    chunk_size: int,
) -> List[ChannelTrace]:
    """One kernel call over ``plans``, finished into each link's trace."""
    fading, selective, condition_db, h_stores = _raysum_batched(plans, include_h, chunk_size)
    return [
        link._finish_evaluation(plan, fading[i], selective[i], condition_db[i], h_stores[i])
        for i, (link, plan) in enumerate(zip(links, plans))
    ]


def _shapes_agree(plans: Sequence[_LinkEvalPlan]) -> bool:
    """Links can share one kernel call iff their array shapes agree."""
    shapes = {(p.freq_nlos.shape, p.tx_nlos.shape, p.rx_nlos.shape) for p in plans}
    return len(shapes) == 1


class LinkChannel:
    """Stochastic channel of one AP-client link, evaluated along trajectories."""

    def __init__(
        self,
        ap: Point,
        config: ChannelConfig = ChannelConfig(),
        environment: Optional[EnvironmentProcess] = None,
        seed: SeedLike = None,
    ) -> None:
        self.ap = ap
        self.config = config
        self.environment = environment
        rng = ensure_rng(seed)
        self._path_rng, self._env_rng, self._drift_rng, self._shadow_rng = spawn_rngs(rng, 4)
        self._paths: Optional[PathSet] = None
        self._shadowing = ShadowingProcess(
            config.shadowing_sigma_db, config.shadowing_decorrelation_m, seed=self._shadow_rng
        )
        # Evolution state, kept across evaluate() calls:
        self._env_state: Optional[np.ndarray] = None  # (P,) complex OU values
        self._residual_phase: Optional[np.ndarray] = None  # (P,)
        self._nlos_gains: Optional[np.ndarray] = None  # (P-1,) complex
        self._nlos_std: Optional[np.ndarray] = None  # (P-1,) per-path target std
        self._anchor: Optional[Point] = None
        self._last_position: Optional[Point] = None
        #: multipath structure decorrelation distance (metres of travel).
        self.structure_decorrelation_m = 2.5
        #: telemetry sink for evaluation timing (no-op by default).
        self.recorder: Recorder = NULL_RECORDER

    # ------------------------------------------------------------------ setup

    def _ensure_paths(self, first_position: Point) -> PathSet:
        if self._paths is None:
            los_angle = heading_between(self.ap, first_position)
            self._paths = draw_path_set(self.config, los_angle, seed=self._path_rng)
            p = self._paths.n_paths
            self._env_state = (
                self._env_rng.standard_normal(p) + 1j * self._env_rng.standard_normal(p)
            ) / math.sqrt(2.0)
            self._residual_phase = np.zeros(p)
            self._nlos_gains = self._paths.amplitudes[1:].copy()
            profile = np.abs(self._paths.amplitudes[1:]) ** 2
            # Target std for structure drift: keep the power-delay profile
            # shape, anchored at the drawn powers.
            self._nlos_std = np.sqrt(np.maximum(profile, 1e-9))
            self._anchor = first_position
            self._last_position = first_position
        return self._paths

    def _environment_mask(self, n_paths: int) -> np.ndarray:
        """Deterministic choice of which rays the environment perturbs."""
        if self.environment is None or self.environment.is_quiet:
            return np.zeros(n_paths, dtype=bool)
        n_affected = int(round(self.environment.affected_path_fraction * (n_paths - 1)))
        mask = np.zeros(n_paths, dtype=bool)
        if n_affected > 0:
            # Perturb the strongest NLoS rays: people move along dominant
            # reflection geometry (walls, furniture near the link).
            nlos_order = np.argsort(-np.abs(self._paths.amplitudes[1:])) + 1
            mask[nlos_order[:n_affected]] = True
        return mask

    # --------------------------------------------------------------- evaluate

    def evaluate(
        self,
        times: np.ndarray,
        positions: np.ndarray,
        include_h: bool = True,
        chunk_size: int = 2048,
    ) -> ChannelTrace:
        """Evaluate the channel at ``times`` for client ``positions``.

        ``times`` must be a uniform, increasing grid; ``positions`` is
        ``(N, 2)``.  With ``include_h=False`` only scalar link quality is
        produced (cheaper for long MAC-level simulations).
        """
        live = self.recorder.enabled
        t0 = perf_counter() if live else 0.0
        plan = self._prepare_evaluation(times, positions)
        (trace,) = _evaluate_plans([self], [plan], [include_h], chunk_size)
        if live:
            self.recorder.channel_eval(
                "link_evaluate",
                batch_size=1,
                n_samples=plan.n,
                elapsed_s=perf_counter() - t0,
                time_s=float(plan.times[0]),
            )
        return trace

    def _prepare_evaluation(self, times: np.ndarray, positions: np.ndarray) -> _LinkEvalPlan:
        """Advance the link's stochastic state and lay out the ray sum."""
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        n = len(times)
        if n == 0:
            raise ValueError("need at least one sample time")
        if positions.shape != (n, 2):
            raise ValueError(f"positions must be ({n}, 2), got {positions.shape}")
        if n > 1:
            steps = np.diff(times)
            dt = float(steps[0])
            if np.any(np.abs(steps - dt) > 1e-9):
                raise ValueError("times must be a uniform grid")
            if dt <= 0:
                raise ValueError("times must be increasing")
        else:
            dt = 1e-3

        cfg = self.config
        first = Point(float(positions[0, 0]), float(positions[0, 1]))
        paths = self._ensure_paths(first)
        p = paths.n_paths

        distances = np.hypot(positions[:, 0] - self.ap.x, positions[:, 1] - self.ap.y)
        distances = np.maximum(distances, 0.5)  # clients are never inside the AP

        # Movement per step (first step continues from the previous call).
        move = np.empty(n)
        prev = self._last_position
        move[0] = math.hypot(positions[0, 0] - prev.x, positions[0, 1] - prev.y)
        if n > 1:
            move[1:] = np.hypot(np.diff(positions[:, 0]), np.diff(positions[:, 1]))
        speeds = move / dt
        speeds[0] = speeds[1] if n > 1 else 0.0

        shadowing_db = self._shadowing.trace(move)
        blockage_db = self._blockage_series(n, dt)

        gains = self._evolve_gains(n, dt, move)  # (N, P) complex ray gains

        # Device-motion phases.
        lam = cfg.wavelength_m
        disp = positions - np.array([self._anchor.x, self._anchor.y])
        unit = paths.arrival_unit_vectors()  # (P, 2)
        nlos_phase = (2.0 * np.pi / lam) * (disp @ unit[1:].T)  # (N, P-1)
        anchor_dist = max(
            math.hypot(self._anchor.x - self.ap.x, self._anchor.y - self.ap.y), 0.5
        )
        los_phase = (-2.0 * np.pi / lam) * (distances - anchor_dist)  # (N,)

        ray_phasors = np.empty((n, p), dtype=np.complex128)
        ray_phasors[:, 0] = gains[:, 0] * np.exp(1j * los_phase)
        ray_phasors[:, 1:] = gains[:, 1:] * np.exp(1j * nlos_phase)

        # Frequency response factors.
        offsets = cfg.subcarrier_offsets_hz()  # (K,)
        freq_nlos = np.exp(-2j * np.pi * np.outer(paths.excess_delays_s[1:], offsets))  # (P-1, K)
        los_delay_shift = (distances - anchor_dist) / SPEED_OF_LIGHT  # (N,)
        freq_los = np.exp(-2j * np.pi * np.outer(los_delay_shift, offsets))  # (N, K)

        # Steering: NLoS fixed; LoS follows the true geometric angle.
        tx_nlos = steering_vector(paths.aod_rad[1:], cfg.n_tx)  # (P-1, T)
        rx_nlos = steering_vector(paths.aoa_rad[1:], cfg.n_rx)  # (P-1, R)
        los_angle = np.arctan2(positions[:, 1] - self.ap.y, positions[:, 0] - self.ap.x)
        tx_los = np.exp(-1j * np.pi * np.outer(np.sin(los_angle), np.arange(cfg.n_tx)))  # (N, T)
        rx_los = np.exp(-1j * np.pi * np.outer(np.sin(los_angle + np.pi), np.arange(cfg.n_rx)))

        self._last_position = Point(float(positions[-1, 0]), float(positions[-1, 1]))

        return _LinkEvalPlan(
            times=times,
            distances=distances,
            speeds=speeds,
            shadowing_db=shadowing_db,
            blockage_db=blockage_db,
            ray_phasors=ray_phasors,
            freq_nlos=freq_nlos,
            freq_los=freq_los,
            tx_nlos=tx_nlos,
            rx_nlos=rx_nlos,
            tx_los=tx_los,
            rx_los=rx_los,
        )

    def _finish_evaluation(
        self,
        plan: _LinkEvalPlan,
        fading: np.ndarray,
        selective: np.ndarray,
        condition_db: np.ndarray,
        h_store: Optional[np.ndarray],
    ) -> ChannelTrace:
        """Turn ray-sum output into the link-quality trace."""
        cfg = self.config
        fading_db = 10.0 * np.log10(np.maximum(fading, 1e-12))
        loss = path_loss_db(
            plan.distances,
            cfg.carrier_hz,
            breakpoint_m=cfg.pathloss_breakpoint_m,
            exponent_near=cfg.pathloss_exponent_near,
            exponent_far=cfg.pathloss_exponent_far,
        )
        rssi = cfg.tx_power_dbm - loss - plan.shadowing_db - plan.blockage_db + fading_db
        snr = rssi - cfg.noise_floor_dbm
        selective_db = 10.0 * np.log10(np.maximum(selective, 1e-12))
        effective_snr = (
            cfg.tx_power_dbm
            - loss
            - plan.shadowing_db
            - plan.blockage_db
            + selective_db
            - cfg.noise_floor_dbm
        )

        doppler = self._effective_doppler(plan.speeds)

        return ChannelTrace(
            times=plan.times,
            distances_m=plan.distances,
            rssi_dbm=rssi,
            snr_db=snr,
            fading_db=fading_db,
            doppler_hz=doppler,
            mimo_condition_db=condition_db,
            h=h_store,
            csi_estimation_penalty_db=cfg.csi_estimation_penalty_db,
            effective_snr_db=effective_snr,
        )

    # ----------------------------------------------------------- state models

    def _evolve_gains(self, n: int, dt: float, move: np.ndarray) -> np.ndarray:
        """Advance scatterer / residual / structure processes; return ray gains."""
        paths = self._paths
        p = paths.n_paths
        cfg = self.config

        # Residual phase diffusion on every ray (quiet-room dynamics).
        sigma = math.sqrt(cfg.residual_phase_diffusion * dt)
        increments = self._drift_rng.normal(0.0, sigma, size=(n, p))
        residual = self._residual_phase + np.cumsum(increments, axis=0)
        self._residual_phase = residual[-1].copy()

        gains = np.empty((n, p), dtype=np.complex128)

        env_mask = self._environment_mask(p)
        env_active = bool(np.any(env_mask))
        if env_active:
            rho_env = math.exp(-dt / self.scatterer_coherence_time())
            innov = math.sqrt(max(0.0, 1.0 - rho_env * rho_env) / 2.0)
            af = self.environment.amplitude_fraction
            norm = math.sqrt((1.0 - af) ** 2 + af**2)

        # Multipath structure drift with travelled distance (macro walks
        # gradually exchange old reflections for new ones).
        rho_struct = np.exp(-move / self.structure_decorrelation_m)

        env_state = self._env_state
        nlos = self._nlos_gains
        amplitudes = paths.amplitudes.copy()
        rng = self._env_rng
        drift_rng = self._drift_rng
        nlos_std = self._nlos_std

        for i in range(n):
            if rho_struct[i] < 1.0:
                r = rho_struct[i]
                fresh = (
                    drift_rng.standard_normal(p - 1) + 1j * drift_rng.standard_normal(p - 1)
                ) / math.sqrt(2.0)
                nlos = r * nlos + math.sqrt(max(0.0, 1.0 - r * r)) * fresh * nlos_std
            amplitudes[1:] = nlos
            if env_active:
                w = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) * innov
                env_state = rho_env * env_state + w
                perturb = np.where(
                    env_mask, ((1.0 - af) + af * env_state) / norm, 1.0
                )
            else:
                perturb = 1.0
            gains[i] = amplitudes * perturb
        gains *= np.exp(1j * residual)

        self._env_state = env_state
        self._nlos_gains = nlos
        return gains

    def _blockage_series(self, n: int, dt: float) -> np.ndarray:
        """Body-blockage attenuation from people crossing the link.

        Environmental mobility's strongest RSSI effect is not multipath
        perturbation but *shadowing*: a person walking through the first
        Fresnel zone attenuates the whole signal by several dB for around a
        second.  This is why Fig. 1 finds RSSI variation under
        environmental mobility often *exceeding* device mobility.  Applied
        as a common scale, it leaves the per-subcarrier gain *profile* —
        and hence CSI similarity — essentially untouched.
        """
        if self.environment is None or self.environment.is_quiet:
            return np.zeros(n)
        env = self.environment
        # A busy cafeteria has near-continuous crossings; a quiet office a
        # few per minute.  Scaled from the scatterer-process intensity.
        rate_hz = 2.5 * env.affected_path_fraction + 0.5 * env.amplitude_fraction
        max_depth_db = 16.0 * env.amplitude_fraction + 3.0
        series = np.zeros(n)
        rng = self._env_rng
        t = 0.0
        horizon = n * dt
        while True:
            t += float(rng.exponential(1.0 / max(rate_hz, 1e-6)))
            if t >= horizon:
                break
            depth = float(rng.uniform(1.5, max_depth_db))
            duration = float(rng.uniform(0.4, 1.5))
            start = int(t / dt)
            stop = min(n, int((t + duration) / dt))
            if stop <= start:
                continue
            # Smooth crossing profile (raised-cosine bump).
            length = stop - start
            bump = depth * 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(length) / max(length, 1)))
            series[start:stop] = np.maximum(series[start:stop], bump)
        return series

    def scatterer_coherence_time(self) -> float:
        """Coherence time of the scatterer-driven ray components.

        A moving person perturbs reflections on timescales of hundreds of
        milliseconds (body sway, steps), far slower than a frame.
        """
        if self.environment is None or self.environment.is_quiet:
            return float("inf")
        return max(
            0.05, self.config.wavelength_m / max(self.environment.scatterer_speed, 1e-3) * 10.0
        )

    def _effective_doppler(self, speeds: np.ndarray) -> np.ndarray:
        """Effective fading Doppler for within-frame staleness modelling.

        Only *device* motion decorrelates the channel within a frame:
        moving the radio rotates every ray phase at up to ``v / lambda``.
        Environmental scatterer dynamics are two orders of magnitude slower
        (see :meth:`scatterer_coherence_time`), slow enough for pilot-based
        tracking to follow, so they do not contribute here.
        """
        cfg = self.config
        device = speeds / cfg.wavelength_m
        # Scatterer and quiet-room drift are slow enough that the receiver's
        # pilot-based tracking compensates them within a frame; only a small
        # residual floor remains.
        return np.sqrt(device**2 + cfg.residual_doppler_hz**2)


class MultiLinkChannel:
    """Batched evaluation of many AP-client links on one shared time grid.

    Wraps a set of :class:`LinkChannel` instances (each keeping its own
    stochastic state across calls) and evaluates them together.  The
    expensive ray-sum stage is fused into one vectorized kernel across all
    links, so serving N clients stops costing N independent Python loops —
    the architectural hook the :class:`repro.sim.SimulationEngine` uses for
    multi-client runs.

    ``n_calls`` / ``last_batch_size`` provide the call accounting the
    scaling benchmarks assert against.
    """

    def __init__(self, links: Sequence[LinkChannel]) -> None:
        if len(links) == 0:
            raise ValueError("need at least one link")
        self._links = list(links)
        self.n_calls = 0
        self.last_batch_size = 0
        self._recorder: Recorder = NULL_RECORDER

    @property
    def recorder(self) -> Recorder:
        """Telemetry sink; assigning also rebinds every member link."""
        return self._recorder

    @recorder.setter
    def recorder(self, recorder: Recorder) -> None:
        self._recorder = recorder
        for link in self._links:
            link.recorder = recorder

    @classmethod
    def for_clients(
        cls,
        ap: Point,
        n_clients: int,
        config: ChannelConfig = ChannelConfig(),
        environment: Optional[EnvironmentProcess] = None,
        seed: SeedLike = None,
    ) -> "MultiLinkChannel":
        """Independent links from one AP to ``n_clients`` client devices."""
        rng = ensure_rng(seed)
        seeds = spawn_rngs(rng, n_clients)
        return cls(
            [LinkChannel(ap, config, environment=environment, seed=s) for s in seeds]
        )

    @property
    def links(self) -> List[LinkChannel]:
        return self._links

    def __len__(self) -> int:
        return len(self._links)

    def evaluate_many(
        self,
        times: np.ndarray,
        positions_per_client: Sequence[np.ndarray],
        include_h: bool = False,
        include_h_for: Optional[Sequence[int]] = None,
        chunk_size: int = 2048,
    ) -> List[ChannelTrace]:
        """Evaluate every link at ``times``; one position array per link.

        ``include_h_for`` lists link indices that need full CSI (bounding
        memory, as in :class:`repro.wlan.multilink.MultiApChannel`).  The
        ray sums of many links run through one kernel call, as many links
        per call as fit in ``chunk_size`` samples; links whose array shapes
        differ (mixed antenna, path or subcarrier counts) run as one-link
        calls of the same kernel.  Either way each link's trace is
        bit-identical to what :meth:`LinkChannel.evaluate` gives it.
        """
        if len(positions_per_client) != len(self._links):
            raise ValueError(
                f"{len(self._links)} links need {len(self._links)} position arrays, "
                f"got {len(positions_per_client)}"
            )
        wants = [
            include_h or (include_h_for is not None and index in include_h_for)
            for index in range(len(self._links))
        ]
        live = self._recorder.enabled
        t0 = perf_counter() if live else 0.0
        plans = [
            link._prepare_evaluation(times, positions)
            for link, positions in zip(self._links, positions_per_client)
        ]
        self.n_calls += 1
        self.last_batch_size = len(plans)
        # One kernel chunk holds at most ``chunk_size`` link-samples, as one
        # link's time chunk does, so batching links never multiplies the
        # peak memory of a long evaluation.
        per_call = max(1, chunk_size // plans[0].n) if _shapes_agree(plans) else 1
        traces = []
        for start in range(0, len(plans), per_call):
            group = slice(start, start + per_call)
            traces += _evaluate_plans(
                self._links[group], plans[group], wants[group], chunk_size
            )
        if live:
            self._recorder.channel_eval(
                "evaluate_many",
                batch_size=len(plans),
                n_samples=plans[0].n,
                elapsed_s=perf_counter() - t0,
                time_s=float(plans[0].times[0]),
            )
        return traces
