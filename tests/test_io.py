"""Tests for the CSI Tool format adapter and its CSI stream."""

import numpy as np
import pytest

from repro.core.classifier import MobilityClassifier
from repro.io.csitool import (
    N_SUBCARRIERS,
    CsiRecord,
    read_csitool_log,
    records_to_csi_stream,
    write_csitool_log,
)


def _make_record(rng, timestamp=1000, n_tx=2, n_rx=3) -> CsiRecord:
    csi = np.round(rng.uniform(-120, 120, (N_SUBCARRIERS, n_tx, n_rx))) + 1j * np.round(
        rng.uniform(-120, 120, (N_SUBCARRIERS, n_tx, n_rx))
    )
    return CsiRecord(
        timestamp_low=timestamp,
        bfee_count=7,
        n_rx=n_rx,
        n_tx=n_tx,
        rssi_a=40,
        rssi_b=42,
        rssi_c=38,
        noise=-92,
        agc=30,
        antenna_sel=0b100100,
        rate=0x1234,
        csi=csi,
    )


class TestCsiToolFormat:
    def test_roundtrip_single_record(self, tmp_path):
        rng = np.random.default_rng(1)
        record = _make_record(rng)
        path = tmp_path / "log.dat"
        write_csitool_log([record], path)
        loaded = read_csitool_log(path)
        assert len(loaded) == 1
        got = loaded[0]
        assert got.timestamp_low == record.timestamp_low
        assert got.n_rx == record.n_rx and got.n_tx == record.n_tx
        assert got.noise == -92
        assert got.rate == 0x1234
        assert np.array_equal(got.csi, record.csi)

    def test_roundtrip_many_records_mixed_antennas(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            _make_record(rng, timestamp=1000 * i, n_tx=1 + (i % 3), n_rx=3)
            for i in range(12)
        ]
        path = tmp_path / "log.dat"
        write_csitool_log(records, path)
        loaded = read_csitool_log(path)
        assert len(loaded) == 12
        for original, got in zip(records, loaded):
            assert np.array_equal(got.csi, original.csi)

    def test_skips_non_bfee_records(self, tmp_path):
        rng = np.random.default_rng(3)
        record = _make_record(rng)
        path = tmp_path / "log.dat"
        write_csitool_log([record], path)
        # Append an unrelated record (code 0xC1) and a second CSI record.
        import struct

        with open(path, "ab") as handle:
            junk = b"hello"
            handle.write(struct.pack(">H", len(junk) + 1))
            handle.write(bytes([0xC1]))
            handle.write(junk)
        write2 = tmp_path / "log2.dat"
        write_csitool_log([record], write2)
        with open(path, "ab") as handle:
            handle.write(write2.read_bytes())
        loaded = read_csitool_log(path)
        assert len(loaded) == 2

    def test_tolerates_truncated_tail(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "log.dat"
        write_csitool_log([_make_record(rng)], path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00\xff\xbb\x01")  # truncated header
        assert len(read_csitool_log(path)) == 1

    def test_permutation_decoding(self):
        rng = np.random.default_rng(5)
        record = _make_record(rng)
        # antenna_sel 0b100100 -> perm (0, 1, 2)
        assert record.permutation == (0, 1, 2)

    def test_total_rss(self):
        rng = np.random.default_rng(6)
        record = _make_record(rng)
        rss = record.total_rss_dbm()
        # Three chains around 40 dB-units, minus 44 and AGC 30.
        assert -40.0 < rss < -20.0

    def test_scaled_csi_preserves_shape_and_profile(self):
        rng = np.random.default_rng(7)
        record = _make_record(rng)
        scaled = record.scaled_csi()
        assert scaled.shape == record.csi.shape
        # Scaling is a positive real factor: the gain *profile* (what the
        # classifier correlates) is unchanged.
        from repro.core.similarity import csi_similarity

        assert csi_similarity(record.csi, scaled) == pytest.approx(1.0)


class TestCsiStream:
    def test_timestamp_wraparound(self):
        rng = np.random.default_rng(8)
        records = [
            _make_record(rng, timestamp=2**32 - 500_000),
            _make_record(rng, timestamp=2**32 - 100),
            _make_record(rng, timestamp=400_000),  # wrapped
        ]
        times, matrices = records_to_csi_stream(records)
        assert len(matrices) == 3
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)  # monotone despite the wrap

    def test_skips_duplicate_timestamp(self):
        """Regression: a duplicated timestamp_low is not a wrap — it must
        not pass through as a zero-dt step into the time-aware pipeline."""
        rng = np.random.default_rng(18)
        records = [
            _make_record(rng, timestamp=1_000),
            _make_record(rng, timestamp=2_000),
            _make_record(rng, timestamp=2_000),  # duplicate capture
            _make_record(rng, timestamp=3_000),
        ]
        times, matrices = records_to_csi_stream(records)
        assert len(matrices) == 3
        assert np.all(np.diff(times) > 0)

    def test_skips_small_backwards_timestamp(self):
        """A small backwards jump (driver reordering) is far below the
        half-range wrap threshold; the old reader let it through silently."""
        rng = np.random.default_rng(19)
        records = [
            _make_record(rng, timestamp=1_000),
            _make_record(rng, timestamp=50_000),
            _make_record(rng, timestamp=40_000),  # out-of-order delivery
            _make_record(rng, timestamp=60_000),
        ]
        times, matrices = records_to_csi_stream(records)
        assert len(matrices) == 3
        assert np.all(np.diff(times) > 0)
        # The reference stayed at the last *accepted* record, so the final
        # in-order record lands at its true offset.
        assert times[-1] == pytest.approx((60_000 - 1_000) / 1e6)

    def test_nonmonotonic_counts_into_telemetry(self):
        from repro.telemetry import TelemetryRecorder

        rng = np.random.default_rng(20)
        records = [
            _make_record(rng, timestamp=1_000),
            _make_record(rng, timestamp=900),
            _make_record(rng, timestamp=1_000),
            _make_record(rng, timestamp=2_000),
        ]
        recorder = TelemetryRecorder()
        times, matrices = records_to_csi_stream(records, recorder=recorder)
        assert len(matrices) == 2
        assert recorder.metrics.counters()["io.csitool.nonmonotonic"] == 2.0

    def test_nonmonotonic_raise_policy(self):
        rng = np.random.default_rng(21)
        records = [
            _make_record(rng, timestamp=5_000),
            _make_record(rng, timestamp=5_000),
        ]
        with pytest.raises(ValueError, match="non-monotonic.*record 1"):
            records_to_csi_stream(records, nonmonotonic="raise")

    def test_nonmonotonic_policy_validated(self):
        with pytest.raises(ValueError, match="nonmonotonic"):
            records_to_csi_stream([], nonmonotonic="ignore")

    def test_corrupt_timestamp_does_not_poison_wrap_detection(self):
        """One absurd spike must not shift the wrap reference: records
        after it continue from the last good timestamp."""
        rng = np.random.default_rng(22)
        records = [
            _make_record(rng, timestamp=2**32 - 1_000),
            _make_record(rng, timestamp=500),  # genuine wrap
            _make_record(rng, timestamp=400),  # out-of-order after the wrap
            _make_record(rng, timestamp=1_500),
        ]
        times, matrices = records_to_csi_stream(records)
        assert len(matrices) == 3
        assert np.all(np.diff(times) > 0)
        assert times[-1] == pytest.approx(2_500 / 1e6)

    def test_classifier_consumes_real_format(self, tmp_path):
        """End-to-end: CSI Tool log -> classifier decisions."""
        rng = np.random.default_rng(9)
        base = np.abs(rng.standard_normal((N_SUBCARRIERS, 2, 3))) * 40 + 20
        records = []
        for i in range(8):
            csi = np.round(base + rng.normal(0, 0.5, base.shape)) + 0j
            records.append(
                CsiRecord(
                    timestamp_low=500_000 * i,
                    bfee_count=i,
                    n_rx=3,
                    n_tx=2,
                    rssi_a=40,
                    rssi_b=42,
                    rssi_c=38,
                    noise=-92,
                    agc=30,
                    antenna_sel=0b100100,
                    rate=0x1234,
                    csi=csi,
                )
            )
        path = tmp_path / "static.dat"
        write_csitool_log(records, path)
        loaded = read_csitool_log(path)
        times, matrices = records_to_csi_stream(loaded)
        clf = MobilityClassifier()
        estimate = None
        for t, h in zip(times, matrices):
            estimate = clf.push_csi(float(t), h) or estimate
        from repro.mobility.modes import MobilityMode

        assert estimate is not None
        assert estimate.mode == MobilityMode.STATIC  # a stable real-format log
