"""Property-based tests for IO formats and additional invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.csitool import N_SUBCARRIERS, CsiRecord, read_csitool_log, write_csitool_log
from repro.util.textplot import render_bars, render_cdf
from repro.util.stats import EmpiricalCDF

component = st.integers(min_value=-127, max_value=127)


@st.composite
def csi_records(draw):
    n_tx = draw(st.integers(min_value=1, max_value=3))
    n_rx = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    csi = rng.integers(-127, 128, (N_SUBCARRIERS, n_tx, n_rx)) + 1j * rng.integers(
        -127, 128, (N_SUBCARRIERS, n_tx, n_rx)
    )
    return CsiRecord(
        timestamp_low=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        bfee_count=draw(st.integers(min_value=0, max_value=2**16 - 1)),
        n_rx=n_rx,
        n_tx=n_tx,
        rssi_a=draw(st.integers(min_value=0, max_value=100)),
        rssi_b=draw(st.integers(min_value=0, max_value=100)),
        rssi_c=draw(st.integers(min_value=0, max_value=100)),
        noise=draw(st.integers(min_value=-127, max_value=0)),
        agc=draw(st.integers(min_value=0, max_value=60)),
        antenna_sel=draw(st.integers(min_value=0, max_value=63)),
        rate=draw(st.integers(min_value=0, max_value=2**16 - 1)),
        csi=csi.astype(complex),
    )


class TestCsiToolRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(record=csi_records())
    def test_roundtrip_preserves_everything(self, record):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.dat"
            self._check(record, path)

    @staticmethod
    def _check(record, path):
        write_csitool_log([record], path)
        loaded = read_csitool_log(path)
        assert len(loaded) == 1
        got = loaded[0]
        assert got.timestamp_low == record.timestamp_low
        assert got.bfee_count == record.bfee_count
        assert (got.rssi_a, got.rssi_b, got.rssi_c) == (
            record.rssi_a,
            record.rssi_b,
            record.rssi_c,
        )
        assert got.noise == record.noise
        assert got.agc == record.agc
        assert got.antenna_sel == record.antenna_sel
        assert got.rate == record.rate
        assert np.array_equal(got.csi, record.csi)


class TestPlotProperties:
    @settings(max_examples=20)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=50))
    def test_cdf_render_never_crashes(self, samples):
        chart = render_cdf({"s": EmpiricalCDF(samples)})
        assert "s" in chart

    @settings(max_examples=20)
    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=6),
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
            max_size=6,
        )
    )
    def test_bars_contain_every_label(self, values):
        chart = render_bars(values)
        for name in values:
            assert name in chart
