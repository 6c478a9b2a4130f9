"""Host-speed probe: states the end-to-end times at a reference host speed.

On a shared virtual machine the speed a vCPU delivers drifts by up to
~1.4x, and a drift can last for minutes, longer than a whole run.  Such
a drift moves every time the benchmark measures, whatever the program
does.  The probe is a fixed loop of interpreter integer arithmetic that
touches nothing of the program under test.  The benchmark runs it
between the program's calls, many times over a timed unit (after every
engine step, and in the storm also after every channel evaluation), and
leaves its time out of every timing of the program (:class:`ProbedClock`).
The median probe time over a stretch of work tells how fast the host ran
during it, and :meth:`ProbedClock.scale` converts that stretch's host
seconds to seconds at the reference speed (:data:`REFERENCE_PROBE_S`).

A change to the program moves its times but not the probe's, so a
speed-up or a slow-down of the program shows in full.  The program under
test runs no threads; one that kept a thread busy while the benchmark
probes would slow the probe and make the scaled times read low.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from time import perf_counter
from typing import Any, Iterator, List, Optional

#: Loop iterations of one probe (about 1.7 ms at the reference speed).
PROBE_ITERATIONS = 20_000
#: One probe's time at the reference speed: the typical median on a
#: 2-vCPU Intel Xeon virtual machine with CPython 3.11.
REFERENCE_PROBE_S = 1.7e-3


def _probe() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


class ProbedClock:
    """A host clock that probes the host speed and leaves the probes'
    time out of what it reads."""

    def __init__(self) -> None:
        #: Host time of each probe, in the order they ran.
        self.samples: List[float] = []
        self.probed_s = 0.0

    def now(self) -> float:
        return perf_counter() - self.probed_s

    def sample(self) -> None:
        """Run the probe once."""
        started = perf_counter()
        _probe()
        spent = perf_counter() - started
        self.samples.append(spent)
        self.probed_s += spent

    def scale(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Reference seconds per host second over ``samples[start:stop]``;
        1 when those samples are none."""
        samples = self.samples[start:stop]
        return REFERENCE_PROBE_S / statistics.median(samples) if samples else 1.0

    @contextlib.contextmanager
    def after_calls(self, cls: type, attr: str) -> Iterator[None]:
        """Probe after every call of ``cls.attr`` inside the block."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def probed(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            self.sample()
            return result

        setattr(cls, attr, probed)
        try:
            yield
        finally:
            setattr(cls, attr, original)
