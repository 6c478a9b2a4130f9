"""Deterministic, seeded fault injectors for sensing streams.

The AP's observables come from the client's *existing* traffic: ToF from
data-ACK exchanges, CSI from received frames.  Real deployments therefore
see every degradation this module injects — readings that never happen
(idle client), arrive twice (driver double-reports), arrive late (queueing)
or arrive corrupted (calibration glitches reported as NaN).  The injectors
let any protocol study replay exactly those imperfections on top of a clean
simulated trace, with a seed so a degraded run is reproducible bit for bit.

Two stream shapes are supported, matching how
:class:`repro.sim.BatchedSensingSession` consumes each member's inputs:

* a **timed stream** — parallel ``(times, values)`` arrays (the ToF feed);
* a **grid stream** — one optional sample per engine step (the CSI feed),
  where a missing sample is ``None`` and the step simply carries no
  observation.

Faults compose: :class:`FaultPlan` applies a sequence of injectors in order,
each with its own child RNG spawned deterministically from the plan seed,
and accumulates per-fault statistics for telemetry.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import SeedLike, ensure_rng, spawn_rngs

GridStream = List[Optional[Any]]


def _check_rate(rate: float, name: str = "rate") -> float:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")
    return float(rate)


class Fault:
    """One fault process; subclasses implement both stream shapes.

    ``apply_stream`` / ``apply_grid`` must be pure functions of their
    inputs and ``rng`` — determinism is the whole point of the harness.
    Both return the transformed stream plus ``{stat: count}``.
    """

    #: Short name used to namespace statistics (``drop``, ``nan``, ...).
    kind: str = "fault"

    def apply_stream(
        self, times: np.ndarray, values: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
        raise NotImplementedError

    def apply_grid(
        self, samples: GridStream, rng: np.random.Generator
    ) -> Tuple[GridStream, Dict[str, int]]:
        raise NotImplementedError


class DropFault(Fault):
    """Each reading is lost independently with probability ``rate``."""

    kind = "drop"

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate(rate)

    def apply_stream(self, times, values, rng):
        keep = rng.random(len(times)) >= self.rate
        return times[keep], values[keep], {"dropped": int(len(times) - keep.sum())}

    def apply_grid(self, samples, rng):
        out: GridStream = list(samples)
        dropped = 0
        lost = rng.random(len(out)) < self.rate
        for i, hit in enumerate(lost):
            if hit and out[i] is not None:
                out[i] = None
                dropped += 1
        return out, {"dropped": dropped}


class DuplicateFault(Fault):
    """Readings are delivered twice with probability ``rate``.

    On a timed stream the duplicate lands at the same timestamp (a driver
    double-report).  On a grid stream the step re-delivers the *previous*
    step's sample instead of a fresh one — the stale-repeat failure mode of
    polled CSI reports.
    """

    kind = "duplicate"

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate(rate)

    def apply_stream(self, times, values, rng):
        hits = rng.random(len(times)) < self.rate
        repeats = np.where(hits, 2, 1)
        return (
            np.repeat(times, repeats),
            np.repeat(values, repeats),
            {"duplicated": int(hits.sum())},
        )

    def apply_grid(self, samples, rng):
        out: GridStream = list(samples)
        duplicated = 0
        hits = rng.random(len(out)) < self.rate
        for i in range(1, len(out)):
            if hits[i] and out[i] is not None and samples[i - 1] is not None:
                out[i] = samples[i - 1]
                duplicated += 1
        return out, {"duplicated": duplicated}


class DelayFault(Fault):
    """Readings arrive ``delay_s`` late with probability ``rate``.

    A delayed timed-stream reading keeps its value but shifts its delivery
    timestamp; the stream is then re-sorted (stable) so downstream
    consumers still see non-decreasing time.  On a grid stream the sample
    lands ``delay_steps`` later; it only fills a step that has no fresher
    sample of its own, otherwise it is superseded and discarded.
    """

    kind = "delay"

    def __init__(self, rate: float, delay_s: float = 0.5, delay_steps: int = 1) -> None:
        self.rate = _check_rate(rate)
        if delay_s <= 0:
            raise ValueError(f"delay_s must be positive, got {delay_s}")
        if delay_steps < 1:
            raise ValueError(f"delay_steps must be >= 1, got {delay_steps}")
        self.delay_s = float(delay_s)
        self.delay_steps = int(delay_steps)

    def apply_stream(self, times, values, rng):
        hits = rng.random(len(times)) < self.rate
        shifted = np.where(hits, times + self.delay_s, times)
        order = np.argsort(shifted, kind="stable")
        return shifted[order], values[order], {"delayed": int(hits.sum())}

    def apply_grid(self, samples, rng):
        n = len(samples)
        out: GridStream = [None] * n
        hits = rng.random(n) < self.rate
        delayed = superseded = 0
        for i, sample in enumerate(samples):
            if sample is None:
                continue
            if not hits[i]:
                out[i] = sample
        for i, sample in enumerate(samples):
            if sample is None or not hits[i]:
                continue
            target = i + self.delay_steps
            if target < n and out[target] is None:
                out[target] = sample
                delayed += 1
            else:
                superseded += 1
        return out, {"delayed": delayed, "superseded": superseded}


class NaNFault(Fault):
    """Readings are corrupted to NaN with probability ``rate``.

    Models hardware handing back a report it flags (or should flag) as
    garbage.  The pipeline is expected to *detect and discard* these —
    :meth:`repro.core.classifier.MobilityClassifier.push_csi` and
    ``push_tof`` count them as ``classifier.invalid_samples``.
    """

    kind = "nan"

    def __init__(self, rate: float) -> None:
        self.rate = _check_rate(rate)

    def apply_stream(self, times, values, rng):
        hits = rng.random(len(times)) < self.rate
        corrupted = np.where(hits, np.nan, np.asarray(values, dtype=float))
        return times, corrupted, {"corrupted": int(hits.sum())}

    def apply_grid(self, samples, rng):
        out: GridStream = list(samples)
        corrupted = 0
        hits = rng.random(len(out)) < self.rate
        for i, hit in enumerate(hits):
            if hit and out[i] is not None:
                sample = np.asarray(out[i])
                out[i] = np.full_like(sample, np.nan)
                corrupted += 1
        return out, {"corrupted": corrupted}


class FaultPlan:
    """A composable, seeded stack of faults over one run's sensing input.

    Each ``apply_*`` call spawns one child generator per fault from the
    plan's root RNG, so a plan built with the same seed and applied to the
    same streams in the same order reproduces identical corruption.
    Statistics accumulate in :attr:`stats` keyed
    ``faults.<label>.<kind>.<stat>`` — the session pushes them into the
    telemetry recorder as counters.
    """

    def __init__(self, faults: Sequence[Fault], seed: SeedLike = None) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self._rng = ensure_rng(seed)
        self.stats: Dict[str, int] = {}

    def _account(self, label: str, fault: Fault, stats: Dict[str, int]) -> None:
        for name, count in stats.items():
            key = f"faults.{label}.{fault.kind}.{name}"
            self.stats[key] = self.stats.get(key, 0) + count

    def apply_stream(
        self, times: Sequence[float], values: Sequence[float], label: str = "stream"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corrupt a timed ``(times, values)`` stream (e.g. ToF readings)."""
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.shape != v.shape:
            raise ValueError(f"times and values must pair up: {t.shape} vs {v.shape}")
        for fault, rng in zip(self.faults, spawn_rngs(self._rng, len(self.faults))):
            t, v, stats = fault.apply_stream(t, v, rng)
            self._account(label, fault, stats)
        return t, v

    def apply_grid(self, samples: Sequence[Any], label: str = "grid") -> GridStream:
        """Corrupt a per-step sample list (e.g. CSI); holes become ``None``."""
        out: GridStream = list(samples)
        for fault, rng in zip(self.faults, spawn_rngs(self._rng, len(self.faults))):
            out, stats = fault.apply_grid(out, rng)
            self._account(label, fault, stats)
        return out
