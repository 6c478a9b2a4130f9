"""Mobility-aware downlink scheduling (paper Section 9, future work).

The paper lists "scheduling client traffic at an AP taking movement into
account" among the protocols that could benefit from mobility hints.  This
module implements that idea for a single AP serving several clients:

* :class:`RoundRobinScheduler` — equal-airtime baseline;
* :class:`ProportionalFairScheduler` — classic PF: serve the client with
  the best ratio of instantaneous rate to its EWMA-served rate;
* :class:`MobilityAwareScheduler` — PF whose averaging window follows the
  Table-2 philosophy (mobile clients get short memory — their rate samples
  go stale quickly) and whose priorities use the heading: a client moving
  *away* is served eagerly while its channel lasts, a client moving
  *towards* the AP is deferred because the same bits get cheaper as it
  approaches.

The simulator time-slices at frame granularity: in each slot the scheduler
picks one client; the frame outcome updates its throughput account.  The
run itself is a :class:`SchedulingSession` driven by
:class:`repro.sim.SimulationEngine` — the session transmits frames inside
each engine step window, carrying its frame clock across steps.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.model import ChannelTrace
from repro.channel.perturbations import LinkPerturbations
from repro.core.hints import MobilityEstimate
from repro.mac.aggregation import FrameTransmitter
from repro.phy.error import ErrorModel
from repro.rate.atheros import AtherosRateAdaptation
from repro.rate.base import RateAdapter
from repro.sim.engine import Session, StepClock
from repro.util.filters import ExponentialMovingAverage
from repro.util.rng import SeedLike, ensure_rng


class Scheduler(abc.ABC):
    """Chooses which client the AP serves in the next transmit opportunity."""

    name: str = "scheduler"

    @abc.abstractmethod
    def pick(self, now_s: float, instantaneous_mbps: Sequence[float]) -> int:
        """Index of the client to serve, given each client's current
        achievable rate estimate."""

    def account(self, client: int, served_mbps: float) -> None:
        """Record the outcome of serving ``client``.  Default: ignored."""

    def update_hint(self, client: int, estimate: MobilityEstimate) -> None:
        """Mobility hint for one client.  Default: ignored."""


class RoundRobinScheduler(Scheduler):
    """Equal transmit opportunities regardless of channel state."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, now_s: float, instantaneous_mbps: Sequence[float]) -> int:
        del now_s
        client = self._next % len(instantaneous_mbps)
        self._next += 1
        return client


class ProportionalFairScheduler(Scheduler):
    """Serve the client maximising rate / EWMA(served rate)."""

    name = "proportional-fair"

    def __init__(self, alpha: float = 1.0 / 64.0) -> None:
        self.alpha = alpha
        self._served: Dict[int, ExponentialMovingAverage] = {}

    def _ewma(self, client: int) -> ExponentialMovingAverage:
        if client not in self._served:
            self._served[client] = ExponentialMovingAverage(self.alpha, initial=1.0)
        return self._served[client]

    def pick(self, now_s: float, instantaneous_mbps: Sequence[float]) -> int:
        del now_s
        scores = [
            rate / max(self._ewma(i).value, 1e-6)
            for i, rate in enumerate(instantaneous_mbps)
        ]
        return int(np.argmax(scores))

    def account(self, client: int, served_mbps: float) -> None:
        for i in self._served:
            # Clients not served this slot decay toward zero.
            self._served[i].update(served_mbps if i == client else 0.0)
        self._ewma(client)  # ensure existence


class MobilityAwareScheduler(ProportionalFairScheduler):
    """PF with per-client memory and heading bias driven by mobility hints.

    * mobile clients' served-rate EWMA forgets faster (their channel — and
      hence their fair-share computation — goes stale quickly);
    * a client moving *away* gets a priority boost: its channel only
      degrades, so bits are cheapest now; a client moving *towards* the AP
      is mildly deferred — the same bits will cost less airtime shortly.
    """

    name = "mobility-aware"

    #: Memory (alpha) per mobility mode, mirroring the Table-2 philosophy.
    MODE_ALPHA = {
        "static": 1.0 / 64.0,
        "environmental": 1.0 / 48.0,
        "micro": 1.0 / 16.0,
        "macro": 1.0 / 8.0,
    }
    AWAY_BOOST = 1.3
    TOWARDS_DEFER = 0.85

    def __init__(self) -> None:
        super().__init__()
        self._bias: Dict[int, float] = {}

    def update_hint(self, client: int, estimate: MobilityEstimate) -> None:
        alpha = self.MODE_ALPHA.get(estimate.mode.value, self.alpha)
        self._ewma(client).set_alpha(alpha)
        if estimate.moving_away:
            self._bias[client] = self.AWAY_BOOST
        elif estimate.moving_towards:
            self._bias[client] = self.TOWARDS_DEFER
        else:
            self._bias[client] = 1.0

    def pick(self, now_s: float, instantaneous_mbps: Sequence[float]) -> int:
        del now_s
        scores = [
            self._bias.get(i, 1.0) * rate / max(self._ewma(i).value, 1e-6)
            for i, rate in enumerate(instantaneous_mbps)
        ]
        return int(np.argmax(scores))


@dataclass
class ScheduleRunResult:
    """Per-client outcome of one multi-client scheduling run."""

    per_client_mbps: List[float]
    slots_served: List[int]

    @property
    def total_mbps(self) -> float:
        return float(sum(self.per_client_mbps))

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-client throughputs."""
        rates = np.asarray(self.per_client_mbps)
        if np.all(rates == 0):
            return 1.0
        return float(np.sum(rates) ** 2 / (len(rates) * np.sum(rates**2)))


class SchedulingSession(Session):
    """One AP time-slicing transmit opportunities among several clients.

    The whole AP (scheduler, per-client rate controllers, per-client
    fading) is *one* session: arbitration between clients happens inside
    its ``transmit`` phase at frame granularity.  The frame clock carries
    across engine steps, so A-MPDUs freely straddle step boundaries exactly
    as in the historical free-running loop.

    ``hints`` and ``adapters`` hold one entry per trace: client ``i``'s
    time-ordered hint list and its rate controller (a stock Atheros
    controller each by default).  Per transmit opportunity the scheduler
    picks a client from every client's expected goodput at its current
    SNR.  Run it on a :class:`repro.sim.SimulationEngine` over
    ``TimeGrid(traces[0].times)``.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        traces: Sequence[ChannelTrace],
        hints: Optional[Sequence[Sequence[MobilityEstimate]]] = None,
        adapters: Optional[Sequence[RateAdapter]] = None,
        aggregation_time_s: float = 0.004,
        transmitter_seed: SeedLike = 0,
        client: str = "ap",
    ) -> None:
        n_clients = len(traces)
        if n_clients < 2:
            raise ValueError("scheduling needs at least two clients")
        n = len(traces[0])
        for trace in traces:
            if len(trace) != n:
                raise ValueError("client traces must share the time grid")
        for name, per_client in (("hints", hints), ("adapters", adapters)):
            if per_client is not None and len(per_client) != n_clients:
                raise ValueError(f"{len(per_client)} {name} for {n_clients} clients")
        self.client = client
        self.scheduler = scheduler
        self.traces = traces
        self.hints = [()] * n_clients if hints is None else hints
        self.adapters = (
            [AtherosRateAdaptation() for _ in range(n_clients)]
            if adapters is None
            else adapters
        )
        self.aggregation_time_s = aggregation_time_s

        rng = ensure_rng(transmitter_seed)
        self._transmitter = FrameTransmitter(seed=rng)
        self._error_model = ErrorModel()
        times = traces[0].times
        self._times = times
        self._n = n
        self._start = float(times[0])
        self._end = float(times[-1])
        self._now = self._start
        # Independent per-client small-scale fading: the multiuser diversity
        # an opportunistic scheduler exists to harvest.
        self._fades = [
            LinkPerturbations(self._start, self._end + 1.0, seed=int(rng.integers(0, 2**31)))
            for _ in range(n_clients)
        ]
        self._hint_cursor = [0] * n_clients
        self._delivered = [0] * n_clients
        self._slots = [0] * n_clients

    def transmit(self, clock: StepClock) -> None:
        scheduler = self.scheduler
        traces = self.traces
        adapters = self.adapters
        live = self.recorder.enabled
        window_end = min(clock.end_s, self._end)
        while self._now < window_end:
            now = self._now
            index = int(np.searchsorted(self._times, now, side="right") - 1)
            index = min(max(index, 0), self._n - 1)
            estimates = []
            snr_now = []
            burst_now = []
            for client in range(len(traces)):
                client_hints = self.hints[client]
                while (
                    self._hint_cursor[client] < len(client_hints)
                    and client_hints[self._hint_cursor[client]].time_s <= now
                ):
                    hint = client_hints[self._hint_cursor[client]]
                    scheduler.update_hint(client, hint)
                    adapters[client].update_hint(hint)
                    self._hint_cursor[client] += 1
                    if live:
                        self.recorder.count("scheduler.hints", client=str(client))
                        self.recorder.event(
                            "adaptation",
                            now,
                            client=str(client),
                            action="hint_applied",
                            mode=hint.mode.value,
                            heading=hint.heading.value,
                        )
                trace = traces[client]
                fade_db, in_burst = self._fades[client].advance(
                    now, float(trace.doppler_hz[index])
                )
                snr = float(trace.per_snr_db()[index]) + fade_db
                snr_now.append(snr)
                burst_now.append(in_burst)
                # The AP's CQI: expected goodput at the client's current SNR
                # (estimated from the most recent exchange).
                estimates.append(self._error_model.expected_goodput_mbps(snr))

            chosen = scheduler.pick(now, estimates)
            trace = traces[chosen]
            mcs = adapters[chosen].select(now)
            tx_snr = snr_now[chosen]
            if burst_now[chosen]:
                tx_snr -= self._fades[chosen].config.interference_penalty_db
            frame = self._transmitter.transmit(
                mcs,
                tx_snr,
                float(trace.doppler_hz[index]),
                self.aggregation_time_s,
                mimo_condition_db=float(trace.mimo_condition_db[index]),
            )
            adapters[chosen].observe(now, frame)
            self._delivered[chosen] += frame.delivered_bytes
            self._slots[chosen] += 1
            served_mbps = frame.delivered_bytes * 8 / max(frame.airtime_s, 1e-9) / 1e6
            scheduler.account(chosen, served_mbps)
            if live:
                self.recorder.count("scheduler.slots", client=str(chosen))
                self.recorder.observe("scheduler.frame_airtime_s", frame.airtime_s)
            self._now = now + frame.airtime_s

    def finish(self) -> ScheduleRunResult:
        duration = self._now - self._start
        per_client = [bytes_ * 8 / duration / 1e6 for bytes_ in self._delivered]
        if self.recorder.enabled:
            for i, mbps in enumerate(per_client):
                self.recorder.gauge("scheduler.client_mbps", float(mbps), client=str(i))
        return ScheduleRunResult(per_client_mbps=per_client, slots_served=self._slots)

