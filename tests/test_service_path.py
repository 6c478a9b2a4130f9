"""The per-observation service path: trace order, late boundary, teardown.

* :class:`repro.stream.SimulatedSource` orders its trace with one
  ``np.lexsort``; it must yield exactly the sequence a sort of
  ``(time, kind, client)`` tuples gives (the reference kept here);
* the router's late check reads the segment's stepped instants from a
  list cached per router: an offer at exactly the last stepped instant
  is late, one just after it is accepted — in a fresh router, after a
  rollover (the late floor) and after :meth:`ResilientService.recover`;
* a dropped :class:`repro.resilience.ResilientService` holds no
  reference cycle, so it is freed with the cyclic collector off.
"""

import gc
import math
import os
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedMobilityClassifier
from repro.resilience import ResilienceConfig, ResilientService
from repro.stream import FleetSpec, Observation, SimulatedSource, StreamConfig, StreamRouter
from repro.telemetry.metrics import CounterMetric
from repro.telemetry.recorder import TelemetryRecorder


def reference_trace(source):
    """The fleet trace as one sort of ``(time, kind, client)`` tuples."""
    csi_by_client, tof_times, tof_readings = source.batch_inputs()
    spec = source.spec
    events = []
    for i, label in enumerate(source.labels):
        for t, v in zip(tof_times[i], tof_readings[i]):
            events.append((float(t), 0, i, Observation(label, float(t), "tof", float(v))))
        for s in range(spec.n_steps):
            t = s * spec.csi_period_s
            events.append(
                (float(t), 1, i, Observation(label, float(t), "csi", csi_by_client[i][s]))
            )
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return [observation for _, _, _, observation in events]


class TestSimulatedSourceOrder:
    @settings(max_examples=30, deadline=None)
    @given(
        n_clients=st.integers(1, 40),
        walking_every=st.integers(1, 9),
        duration_s=st.floats(0.1, 3.0).map(lambda d: round(d, 3)),
        csi_period_s=st.sampled_from([0.5, 0.25, 0.3]),
        tof_interval_s=st.sampled_from([0.02, 0.03, 0.07, 0.25]),
        seed=st.integers(0, 2**16),
    )
    def test_lexsort_matches_the_tuple_sort(
        self, n_clients, walking_every, duration_s, csi_period_s, tof_interval_s, seed
    ):
        spec = FleetSpec(
            n_clients=n_clients,
            duration_s=duration_s,
            csi_period_s=csi_period_s,
            tof_interval_s=tof_interval_s,
            walking_every=walking_every,
            n_gains=3,
        )
        got = list(SimulatedSource(spec, seed=seed))
        want = reference_trace(SimulatedSource(spec, seed=seed))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.client, g.time_s, g.kind) == (w.client, w.time_s, w.kind)
            assert type(g.time_s) is float
            if w.kind == "csi":
                assert np.array_equal(g.payload, w.payload)
            else:
                assert type(g.payload) is float and g.payload == w.payload

    def test_tof_and_csi_share_instants(self):
        """0.25 s ToF on a 0.5 s CSI cadence: every CSI instant also has
        ToF, which comes first."""
        spec = FleetSpec(n_clients=3, duration_s=2.0, tof_interval_s=0.25, walking_every=1)
        kinds_at_one = [o.kind for o in SimulatedSource(spec) if o.time_s == 1.0]
        assert kinds_at_one == ["tof"] * 3 + ["csi"] * 3


def late_count(recorder):
    return sum(
        m.value
        for m in recorder.metrics.metrics()
        if isinstance(m, CounterMetric) and m.name == "stream.late"
    )


def assert_late_boundary(offer, recorder, label, last_stepped_s):
    """Exactly the last stepped instant is late; the next float is not."""
    before = late_count(recorder)
    assert not offer(Observation(label, last_stepped_s, "tof", 200.0))
    assert late_count(recorder) == before + 1
    assert offer(Observation(label, math.nextafter(last_stepped_s, math.inf), "tof", 200.0))
    assert late_count(recorder) == before + 1


def service_config(tmp_path, name="ckpt"):
    return ResilienceConfig(
        checkpoint_dir=os.path.join(str(tmp_path), name), checkpoint_every_s=1.0
    )


LABELS = ["a", "b"]
DT_S = 0.3
START_S = 1000.1


class TestLateBoundary:
    def test_fresh_router(self):
        recorder = TelemetryRecorder()
        router = StreamRouter(
            BatchedMobilityClassifier(LABELS),
            StreamConfig(dt_s=DT_S, start_s=START_S, horizon_steps=20, queue_capacity=64),
            recorder=recorder,
        )
        assert router.advance(START_S + 2 * DT_S) == 3
        last_s = float(router.engine.grid.times[2])
        assert_late_boundary(router.offer, recorder, "a", last_s)

    def test_after_rollover(self, tmp_path):
        recorder = TelemetryRecorder()
        service = ResilientService(
            BatchedMobilityClassifier(LABELS),
            StreamConfig(dt_s=DT_S, start_s=START_S, horizon_steps=4, queue_capacity=64),
            resilience=service_config(tmp_path),
            recorder=recorder,
        )
        old_end_s = float(service.router.engine.grid.end_s)
        # Just past the segment's end: it rolls over, and nothing of the
        # new segment is due yet.
        service.advance(math.nextafter(old_end_s, math.inf))
        assert service.rollovers == 1
        assert service.router.stepper.next_index == 0
        assert service.router.late_floor_s == old_end_s
        assert_late_boundary(service.offer, recorder, "a", old_end_s)
        # One step into the new segment, the stepped instant rules.
        first_s = float(service.router.engine.grid.times[0])
        service.advance(first_s)
        assert service.router.stepper.next_index == 1
        assert_late_boundary(service.offer, recorder, "b", first_s)

    def test_after_recover(self, tmp_path):
        config = service_config(tmp_path)
        service = ResilientService(
            BatchedMobilityClassifier(LABELS),
            StreamConfig(dt_s=DT_S, start_s=START_S, horizon_steps=20, queue_capacity=64),
            resilience=config,
        )
        service.advance(START_S + 4 * DT_S)
        service.checkpoint_now()
        recorder = TelemetryRecorder()
        recovered = ResilientService.recover(config, recorder=recorder)
        assert recovered.router.stepper.next_index == 5
        last_s = float(recovered.router.engine.grid.times[4])
        assert_late_boundary(recovered.offer, recorder, "b", last_s)


class TestServiceTeardown:
    """With the cyclic collector off, only reference counting frees."""

    def fed(self, service):
        source = SimulatedSource(FleetSpec(n_clients=len(LABELS), duration_s=3.0), seed=4)
        names = dict(zip(source.labels, LABELS))
        for observation in source:
            service.offer(
                Observation(
                    names[observation.client],
                    observation.time_s,
                    observation.kind,
                    observation.payload,
                )
            )
            service.advance(observation.time_s - DT_S)
        assert service.estimates and service.rollovers
        return service

    def assert_freed_without_gc(self, make):
        gc.collect()
        gc.disable()
        try:
            service = self.fed(make())
            refs = [weakref.ref(service), weakref.ref(service.router)]
            del service
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_fresh_service(self, tmp_path):
        self.assert_freed_without_gc(
            lambda: ResilientService(
                BatchedMobilityClassifier(LABELS),
                StreamConfig(dt_s=DT_S, horizon_steps=4),
                resilience=service_config(tmp_path),
                on_estimate=lambda label, time_s, estimate: None,
            )
        )

    def test_recovered_service(self, tmp_path):
        config = service_config(tmp_path)
        ResilientService(
            BatchedMobilityClassifier(LABELS),
            StreamConfig(dt_s=DT_S, horizon_steps=4),
            resilience=config,
        )
        self.assert_freed_without_gc(lambda: ResilientService.recover(config))
