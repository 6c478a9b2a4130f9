"""Ablation benches for the design choices DESIGN.md calls out."""

import numpy as np
from conftest import print_report

from repro.channel.config import ChannelConfig
from repro.channel.model import LinkChannel
from repro.channel.perturbations import PerturbationConfig
from repro.core.aoa_extension import AoAAugmentedDetector, AoASampler
from repro.experiments.common import classification_decisions
from repro.mac.aggregation import FrameTransmitter
from repro.mobility.modes import MobilityMode
from repro.mobility.scenarios import circular_scenario, static_scenario
from repro.mobility.trajectory import StaticTrajectory
from repro.phy.tof import ToFConfig, ToFSampler
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.simulator import simulate_rate_control
from repro.testing import synthetic_trace
from repro.util.geometry import Point

AP = Point(0.0, 0.0)


def test_ablation_similarity_magnitude_vs_complex(run_once):
    """Eq. 1 on |H| vs on raw complex CSI.

    Commodity CSI phase carries carrier-frequency-offset rotations that
    re-randomise between packets.  Complex-valued similarity collapses for
    a perfectly static client; magnitude similarity does not — the reason
    the paper's metric uses channel gains.
    """

    def run():
        trajectory = StaticTrajectory(Point(10.0, 5.0)).sample(30.0, 0.5)
        link = LinkChannel(AP, ChannelConfig(), seed=1)
        trace = link.evaluate(trajectory.times, trajectory.positions, include_h=True)
        h = trace.measured_csi(2)
        rng = np.random.default_rng(3)
        # Per-packet CFO: a random common phase on every sample.
        cfo = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=len(h)))
        h_cfo = h * cfo[:, None, None, None]

        def complex_similarity(a, b):
            x = a.ravel()
            y = b.ravel()
            x = x - x.mean()
            y = y - y.mean()
            return float(
                np.abs(np.vdot(x, y).real)
                / max(np.linalg.norm(x) * np.linalg.norm(y), 1e-12)
            )

        from repro.core.similarity import csi_similarity

        magnitude = np.mean([csi_similarity(h_cfo[i], h_cfo[i + 1]) for i in range(len(h) - 1)])
        complex_ = np.mean(
            [complex_similarity(h_cfo[i], h_cfo[i + 1]) for i in range(len(h) - 1)]
        )
        return magnitude, complex_

    magnitude, complex_ = run_once(run)
    print_report(
        "Ablation — similarity metric under per-packet CFO (static client)",
        f"magnitude-based (paper): {magnitude:.3f}\ncomplex-valued:          {complex_:.3f}",
    )
    assert magnitude > 0.98  # static correctly looks static
    assert complex_ < 0.9  # raw complex similarity is destroyed by CFO


def test_ablation_tof_gating(run_once):
    """Fig. 5 gates ToF measurement on device mobility.

    For a static client the classifier must (almost) never spend airtime on
    ToF probing; an always-on design pays the probing cost permanently.
    """

    def run():
        from repro.core.classifier import MobilityClassifier
        from repro.experiments.common import TRAJECTORY_DT_S

        scenario = static_scenario(Point(12.0, 4.0))
        trajectory = scenario.sample(60.0, TRAJECTORY_DT_S)
        link = LinkChannel(AP, ChannelConfig(), seed=4)
        trace = link.evaluate(
            trajectory.times[::25], trajectory.positions[::25], include_h=True
        )
        measured = trace.measured_csi(5)
        classifier = MobilityClassifier()
        active = 0
        for i in range(len(trace.times)):
            classifier.push_csi(float(trace.times[i]), measured[i])
            active += classifier.wants_tof
        return active / len(trace.times)

    active_fraction = run_once(run)
    print_report(
        "Ablation — ToF measurement gating (static client)",
        f"fraction of time ToF probing active: {100 * active_fraction:.1f}% "
        f"(always-on baseline: 100%)",
    )
    assert active_fraction < 0.1


def test_ablation_aoa_extension_on_circle(run_once):
    """The Section-9 circle case: base classifier fails, AoA extension fixes it."""

    def run():
        # Base classifier on a circular walk.
        scenario = circular_scenario(AP, radius=8.0)
        outcome = classification_decisions(
            scenario, AP, duration_s=40.0, grace_s=5.0, seed=6
        )
        base_macro = np.mean(
            [est.mode == MobilityMode.MACRO for est, _ in outcome.decisions]
        )

        # Augmented detector on the same geometry.
        detector = AoAAugmentedDetector()
        t = np.arange(0.0, 40.0, 0.02)
        angles = 1.2 / 8.0 * t
        tof = ToFSampler(ToFConfig(), seed=7).sample(np.full_like(t, 8.0))
        aoa = AoASampler(seed=8).sample(angles)
        macro_flags = []
        for reading_tof, reading_aoa in zip(tof, aoa):
            detector.push_tof(float(reading_tof))
            detector.push_aoa(float(reading_aoa))
            macro_flags.append(detector.is_macro)
        augmented_macro = np.mean(macro_flags[len(macro_flags) // 3 :])
        return base_macro, augmented_macro

    base_macro, augmented_macro = run_once(run)
    print_report(
        "Ablation — circle-around-AP (Section 9 limitation)",
        f"base classifier macro rate:      {100 * base_macro:.1f}%  (fails, as the paper admits)\n"
        f"AoA-augmented macro rate:        {100 * augmented_macro:.1f}%  (future-work fix)",
    )
    assert base_macro < 0.2  # the limitation reproduces
    assert augmented_macro > 0.8  # the extension fixes it


def test_ablation_retry_knob(run_once):
    """The single most load-bearing Table-2 knob: retries before rate-down.

    Under interference bursts, retrying 0/1/2 times before reducing the
    rate spans the stock-vs-aware gap of Fig. 9.
    """

    def run():
        trace = synthetic_trace(snr_db=26.0, duration_s=30.0, doppler_hz=8.0)
        config = PerturbationConfig(interference_rate_hz=1.2)
        results = {}
        for retries in (0, 1, 2):
            run_result = simulate_rate_control(
                AtherosRateAdaptation(retries_before_down=retries),
                trace,
                transmitter=FrameTransmitter(seed=9),
                perturbations=config,
            )
            results[retries] = run_result.throughput_mbps
        return results

    results = run_once(run)
    rows = "\n".join(f"retries={k}: {v:7.1f} Mbps" for k, v in results.items())
    print_report("Ablation — retries before rate reduction (bursty interference)", rows)
    assert results[1] > results[0]
    assert results[2] > results[0]


def test_ablation_trend_window(run_once):
    """Strict monotonicity vs the tolerance-based trend test.

    With integer-quantised ToF medians, strict monotonicity almost never
    fires at walking speed (plateaus); the tolerance test does.
    """

    def run():
        from repro.core.tof_trend import ToFTrend, detect_trend

        rng = np.random.default_rng(10)
        detections = {"strict": 0, "tolerant": 0}
        trials = 200
        for _ in range(trials):
            # Per-second medians of a 1.2 m/s walk, quantised to 0.25 cycles.
            true = 100.0 + 0.35 * np.arange(5)
            medians = np.round((true + rng.normal(0, 0.15, 5)) / 0.25) * 0.25
            strict = all(b > a for a, b in zip(medians, medians[1:]))
            tolerant = detect_trend(list(medians), 0.6, 1.0) == ToFTrend.INCREASING
            detections["strict"] += strict
            detections["tolerant"] += tolerant
        return {k: v / trials for k, v in detections.items()}

    rates = run_once(run)
    print_report(
        "Ablation — trend test on quantised medians (true walking ramp)",
        f"strict monotonicity detection rate:  {100 * rates['strict']:.0f}%\n"
        f"tolerance-based detection rate:      {100 * rates['tolerant']:.0f}%",
    )
    assert rates["tolerant"] > rates["strict"] + 0.2
    assert rates["tolerant"] > 0.7
