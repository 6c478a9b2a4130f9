"""Stateful property test of the router's accounting invariants.

Random interleavings of offers (ToF and CSI; known, unknown, late and
non-finite), ``advance`` calls and checkpoint round-trips must keep two
things true after every single operation, under every backpressure
policy with idle eviction on:

* the running ``backlog`` equals the observations actually queued;
* every offer is accounted for: offered = accepted + each ``stream.*``
  refusal counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedMobilityClassifier
from repro.stream import (
    BACKPRESSURE_POLICIES,
    Observation,
    StreamConfig,
    StreamRouter,
    checkpoint_state,
    restore_router,
)
from repro.telemetry.metrics import CounterMetric
from repro.telemetry.recorder import TelemetryRecorder

#: Every counter an offer that was not accepted lands in.
REFUSALS = (
    "stream.blocked",
    "stream.invalid_time",
    "stream.late",
    "stream.shed",
    "stream.unknown_client",
)

#: Offsets from the service clock: late (<= the last stepped instant),
#: due at the next step, a few steps ahead, and non-finite.
OFFSETS_S = (-1.0, -0.5, 0.0, 0.2, 0.5, 1.3, float("nan"), float("inf"))

offers = st.tuples(
    st.just("offer"),
    st.sampled_from(["tof", "csi"]),
    st.sampled_from(["a", "b", "c", "ghost"]),
    st.sampled_from(OFFSETS_S),
)
advances = st.tuples(st.just("advance"), st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.5]))
round_trips = st.just(("round_trip",))
operations = st.lists(
    st.one_of(offers, offers, offers, advances, round_trips), max_size=60
)


def counter_totals(recorder):
    totals = {}
    for metric in recorder.metrics.metrics():
        if isinstance(metric, CounterMetric):
            totals[metric.name] = totals.get(metric.name, 0.0) + metric.value
    return totals


@pytest.mark.parametrize("policy", BACKPRESSURE_POLICIES)
@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_backlog_and_offer_accounting_hold_after_every_operation(policy, ops):
    recorder = TelemetryRecorder()
    config = StreamConfig(
        dt_s=0.5,
        horizon_steps=400,
        queue_capacity=3,
        backpressure=policy,
        idle_timeout_s=1.0,
    )
    router = StreamRouter(
        BatchedMobilityClassifier(["a", "b", "c"]), config=config, recorder=recorder
    )
    offered = accepted = 0
    for op in ops:
        if op[0] == "offer":
            _, kind, client, offset_s = op
            time_s = router.clock_s + offset_s
            if kind == "tof":
                observation = Observation(client, time_s, "tof", 200.0)
            else:
                observation = Observation(client, time_s, "csi", np.ones(4))
            offered += 1
            accepted += router.offer(observation)
        elif op[0] == "advance":
            router.advance(router.clock_s + op[1])
        else:
            router = restore_router(checkpoint_state(router), recorder=recorder)

        assert router.backlog == sum(len(queue) for queue in router.queues)
        totals = counter_totals(recorder)
        assert totals.get("stream.accepted", 0.0) == accepted
        assert offered == accepted + sum(totals.get(name, 0.0) for name in REFUSALS)
