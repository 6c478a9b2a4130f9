"""Replay CSI Tool captures as streaming observation sources.

The bridge between :mod:`repro.io.csitool` (the binary log reader) and
:mod:`repro.stream` (the ingestion router): a capture file becomes an
iterator of timestamped :class:`repro.stream.Observation` events, with
the reader's wrap-around and non-monotonic-timestamp handling applied
(out-of-order records are skipped and counted under
``io.csitool.nonmonotonic`` — see :func:`records_to_csi_stream`).
"""

from __future__ import annotations

import os
from typing import Iterator, List, Sequence, Union

from repro.io.csitool import CsiRecord, read_csitool_log, records_to_csi_stream
from repro.stream.observations import Observation
from repro.telemetry.recorder import NULL_RECORDER, Recorder


def records_to_observations(
    records: Sequence[CsiRecord],
    client: str,
    scaled: bool = True,
    start_s: float = 0.0,
    nonmonotonic: str = "skip",
    recorder: Recorder = NULL_RECORDER,
) -> List[Observation]:
    """Convert parsed CSI Tool records into one client's CSI observations.

    Timestamps are rebased so the first record lands at ``start_s`` on
    the service clock (capture clocks are arbitrary 32-bit counters).
    """
    times, matrices = records_to_csi_stream(
        records, scaled=scaled, nonmonotonic=nonmonotonic, recorder=recorder
    )
    return [
        Observation(client=client, time_s=start_s + float(t), kind="csi", payload=m)
        for t, m in zip(times, matrices)
    ]


def replay_source(
    path: Union[str, os.PathLike],
    client: str,
    scaled: bool = True,
    start_s: float = 0.0,
    nonmonotonic: str = "skip",
    recorder: Recorder = NULL_RECORDER,
) -> Iterator[Observation]:
    """One CSI Tool ``.dat`` capture as a streaming observation source."""
    records = read_csitool_log(path)
    return iter(
        records_to_observations(
            records,
            client=client,
            scaled=scaled,
            start_s=start_s,
            nonmonotonic=nonmonotonic,
            recorder=recorder,
        )
    )
