"""Roaming schemes: baselines and the paper's controller-based protocol."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.controller.policy import MobilityHintPolicy, PolicyInputs
from repro.mobility.modes import Heading
from repro.roaming.base import RoamingContext, RoamingDecision, RoamingScheme


class StickToFirstAp(RoamingScheme):
    """Never roams — the 'sticking to the current AP' arm of Fig. 7(a)."""

    name = "stick"

    def decide(self, ctx: RoamingContext) -> RoamingDecision:
        del ctx
        return RoamingDecision()


class DefaultClientRoaming(RoamingScheme):
    """Standard client behaviour: scan only when the serving AP gets weak.

    "Most wireless clients associate with the AP with the strongest RSSI
    value.  When the RSSI falls below a predefined threshold, the client
    triggers a handoff, where it scans all the channels and associates with
    the AP with the strongest RSSI." (Section 3)
    """

    name = "default"

    def __init__(
        self,
        rssi_threshold_dbm: float = -72.0,
        scan_holdoff_s: float = 3.0,
        switch_margin_db: float = 2.0,
    ) -> None:
        self.rssi_threshold_dbm = rssi_threshold_dbm
        self.scan_holdoff_s = scan_holdoff_s
        self.switch_margin_db = switch_margin_db
        self._last_scan_s = -1e9

    def decide(self, ctx: RoamingContext) -> RoamingDecision:
        rssi = ctx.current_rssi_dbm()
        if rssi >= self.rssi_threshold_dbm:
            return RoamingDecision()
        if ctx.now_s - self._last_scan_s < self.scan_holdoff_s:
            return RoamingDecision()
        self._last_scan_s = ctx.now_s
        report = ctx.scan()
        best = max(report, key=report.get)
        if best != ctx.current_ap and report[best] > rssi + self.switch_margin_db:
            return RoamingDecision(target_ap=best)
        return RoamingDecision()

    def reset(self) -> None:
        self._last_scan_s = -1e9


class SensorHintRoaming(DefaultClientRoaming):
    """The client-based scheme of [1]: scan periodically while moving.

    On top of default behaviour, an accelerometer hint triggers periodic
    scans whenever the device is mobile; the client switches if a clearly
    stronger AP appears.  The cost is the scan outages themselves —
    "frequent scanning is time consuming ... and prevents the client from
    transmitting or receiving data" (Section 3).
    """

    name = "sensor-hint"

    def __init__(
        self,
        rssi_threshold_dbm: float = -72.0,
        mobile_scan_period_s: float = 5.0,
        switch_margin_db: float = 5.0,
    ) -> None:
        super().__init__(rssi_threshold_dbm=rssi_threshold_dbm)
        self.mobile_scan_period_s = mobile_scan_period_s
        self.mobile_switch_margin_db = switch_margin_db
        self._last_mobile_scan_s = -1e9

    def decide(self, ctx: RoamingContext) -> RoamingDecision:
        if (
            ctx.accelerometer_moving()
            and ctx.now_s - self._last_mobile_scan_s >= self.mobile_scan_period_s
        ):
            self._last_mobile_scan_s = ctx.now_s
            report = ctx.scan()
            best = max(report, key=report.get)
            if (
                best != ctx.current_ap
                and report[best] > ctx.current_rssi_dbm() + self.mobile_switch_margin_db
            ):
                return RoamingDecision(target_ap=best)
            return RoamingDecision()
        return super().decide(ctx)

    def reset(self) -> None:
        super().reset()
        self._last_mobile_scan_s = -1e9


class ControllerRoaming(RoamingScheme):
    """The paper's mobility-aware controller-based roaming (Section 3.1).

    The serving AP classifies the client's mobility; only when the client
    is under macro mobility *moving away* — and the estimate is settled
    (``tof_window_full``; a provisional hint from a still-filling trend
    window must not force a roam, or the client ping-pongs at mobility
    onset) — does the controller look for a candidate AP that (a) the
    client is moving towards and (b) has similar or better signal
    strength.  If one exists, the client is disassociated and steered to
    it.  Static/environmental/micro clients are never touched, and
    neither are clients approaching their serving AP.

    Since ``repro.controller`` landed this is a thin single-client
    adapter: the candidate rule is
    :meth:`repro.controller.policy.MobilityHintPolicy.preempt`, the same
    code path the fleet-scale controller runs each epoch, with the
    neighbour report's per-AP headings standing in for the RSSI slopes
    the controller derives from its link windows.
    """

    name = "controller"

    def __init__(
        self,
        candidate_margin_db: float = 0.0,
        roam_cooldown_s: float = 5.0,
        fallback: Optional[DefaultClientRoaming] = None,
        policy: Optional[MobilityHintPolicy] = None,
    ) -> None:
        self.candidate_margin_db = candidate_margin_db
        self.roam_cooldown_s = roam_cooldown_s
        self.policy = policy or MobilityHintPolicy(
            preempt_margin_db=candidate_margin_db,
            preempt_cooldown_s=roam_cooldown_s,
        )
        #: Clients keep their stock firmware: the default scheme still runs.
        self.fallback = fallback or DefaultClientRoaming()
        self._last_roam_s = -1e9

    def _policy_inputs(self, ctx: RoamingContext) -> "tuple[PolicyInputs, list[int]]":
        """One-row :class:`PolicyInputs` built from the neighbour report.

        The report's discrete per-AP heading becomes the sign of the RSSI
        slope the fleet controller would have measured (TOWARDS ⇒
        approaching ⇒ positive slope).
        """
        report = ctx.neighbor_report()
        aps = sorted(report)
        if ctx.current_ap not in report:
            aps.append(ctx.current_ap)
        serving = aps.index(ctx.current_ap)
        rssi = np.array(
            [[report[ap].rssi_dbm if ap in report else -np.inf for ap in aps]]
        )
        rssi[0, serving] = ctx.current_rssi_dbm()
        slope = np.array(
            [
                [
                    1.0
                    if ap in report and report[ap].heading == Heading.TOWARDS
                    else -1.0
                    for ap in aps
                ]
            ]
        )
        true1 = np.ones(1, dtype=bool)
        inputs = PolicyInputs(
            now_s=ctx.now_s,
            serving=np.array([serving]),
            rssi_dbm=rssi,
            rssi_slope_db=slope,
            attainable_mbps=np.zeros_like(rssi),
            alive=np.ones(len(aps), dtype=bool),
            last_handover_s=np.array([self._last_roam_s]),
            window_full=True,
            hint_macro=true1,
            hint_away=true1,
            hint_provisional=~true1,
        )
        return inputs, aps

    def decide(self, ctx: RoamingContext) -> RoamingDecision:
        estimate = ctx.mobility_estimate()
        if (
            estimate is not None
            and estimate.moving_away
            and estimate.tof_window_full  # provisional hints never pre-empt
        ):
            inputs, aps = self._policy_inputs(ctx)
            targets, eligible = self.policy.preempt(inputs)
            if eligible[0]:
                self._last_roam_s = ctx.now_s
                return RoamingDecision(target_ap=aps[int(targets[0])], forced=True)
        return self.fallback.decide(ctx)

    def reset(self) -> None:
        self._last_roam_s = -1e9
        self.fallback.reset()
