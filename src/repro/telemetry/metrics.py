"""The metrics registry: counters, gauges, fixed-bucket histograms.

Metrics are keyed by ``(name, client)`` so per-client series of one
quantity stay separate rows in the flat export while sharing a name.
All state is plain Python plus one numpy array per histogram — no new
dependencies, and nothing here ever touches simulation RNG state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type, TypeVar, Union

import numpy as np

#: Log-spaced default bucket edges covering microseconds through
#: thousands — wide enough for wall times (seconds) and rates (Mbit/s)
#: alike.  Declare a histogram explicitly for tighter buckets.
DEFAULT_HISTOGRAM_EDGES: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0
)


@dataclass
class CounterMetric:
    """A monotonically increasing count."""

    name: str
    client: Optional[str] = None
    value: float = 0.0

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        self.value += value

    def rows(self) -> Iterator[Tuple[str, str, str, str, float]]:
        yield ("counter", self.name, self.client or "", "value", self.value)


@dataclass
class GaugeMetric:
    """A value that can go up and down; remembers the last set."""

    name: str
    client: Optional[str] = None
    value: float = 0.0
    n_sets: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.n_sets += 1

    def rows(self) -> Iterator[Tuple[str, str, str, str, float]]:
        yield ("gauge", self.name, self.client or "", "value", self.value)


class HistogramMetric:
    """A fixed-bucket histogram over ``len(edges) + 1`` bins.

    Bucket ``i`` counts values in ``[edges[i-1], edges[i])``; bucket 0 is
    the underflow bin (``value < edges[0]``) and the last bucket the
    overflow bin (``value >= edges[-1]``).  Edges are fixed at creation,
    so observing is one ``bisect_right`` over a tuple of them — no
    rebinning, ever.  It places every value exactly where
    ``np.searchsorted(edges, value, side="right")`` would, ``nan`` in
    the overflow bin included, at a fraction of the per-call cost.
    """

    def __init__(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_HISTOGRAM_EDGES,
        client: Optional[str] = None,
    ) -> None:
        edges_arr = np.asarray(edges, dtype=float)
        if edges_arr.ndim != 1 or len(edges_arr) < 1:
            raise ValueError("need at least one bucket edge")
        if np.any(np.diff(edges_arr) <= 0):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.client = client
        self.edges = edges_arr
        self._edge_tuple = tuple(edges_arr.tolist())
        self.counts = np.zeros(len(edges_arr) + 1, dtype=np.int64)
        self.n = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self._edge_tuple, value)] += 1
        self.n += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    def bucket_label(self, index: int) -> str:
        if index == 0:
            return f"<{self.edges[0]:g}"
        if index == len(self.edges):
            return f">={self.edges[-1]:g}"
        return f"[{self.edges[index - 1]:g},{self.edges[index]:g})"

    def rows(self) -> Iterator[Tuple[str, str, str, str, float]]:
        base = ("histogram", self.name, self.client or "")
        yield (*base, "count", float(self.n))
        yield (*base, "sum", self.sum)
        if self.n:
            yield (*base, "min", self.min)
            yield (*base, "max", self.max)
        for index, count in enumerate(self.counts):
            if count:
                yield (*base, f"bucket{self.bucket_label(index)}", float(count))


#: Any metric instance the registry can hold.
Metric = Union["CounterMetric", "GaugeMetric", "HistogramMetric"]

#: The concrete metric type an accessor creates/returns.
_M = TypeVar("_M", "CounterMetric", "GaugeMetric", "HistogramMetric")


class MetricsRegistry:
    """All metrics of one run, keyed by ``(name, client)``.

    Accessors create on first use and return the existing instance after
    (registering the same name as a different metric type raises).
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Optional[str]], Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, kind: Type[_M], name: str, client: Optional[str], *args: Any) -> _M:
        key = (name, client)
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name, *args, client=client) if args else kind(name, client=client)
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, client: Optional[str] = None) -> CounterMetric:
        return self._get(CounterMetric, name, client)

    def gauge(self, name: str, client: Optional[str] = None) -> GaugeMetric:
        return self._get(GaugeMetric, name, client)

    def histogram(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_HISTOGRAM_EDGES,
        client: Optional[str] = None,
    ) -> HistogramMetric:
        return self._get(HistogramMetric, name, client, edges)

    # ------------------------------------------------------- one-shot helpers

    def count(self, name: str, value: float = 1.0, client: Optional[str] = None) -> None:
        self.counter(name, client).inc(value)

    def set_gauge(self, name: str, value: float, client: Optional[str] = None) -> None:
        self.gauge(name, client).set(value)

    def observe(self, name: str, value: float, client: Optional[str] = None) -> None:
        self.histogram(name, client=client).observe(value)

    # ------------------------------------------------------------- inspection

    def metrics(self) -> List[Metric]:
        """All metrics, sorted by (name, client) for stable exports."""
        return [self._metrics[key] for key in sorted(self._metrics, key=lambda k: (k[0], k[1] or ""))]

    def counters(self) -> Dict[str, float]:
        """Flat ``{display name: value}`` of every counter (for summaries)."""
        out: Dict[str, float] = {}
        for metric in self.metrics():
            if isinstance(metric, CounterMetric):
                label = metric.name if metric.client is None else f"{metric.name} [{metric.client}]"
                out[label] = metric.value
        return out

    def gauges(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for metric in self.metrics():
            if isinstance(metric, GaugeMetric):
                label = metric.name if metric.client is None else f"{metric.name} [{metric.client}]"
                out[label] = metric.value
        return out

    def histograms(self) -> List[HistogramMetric]:
        return [m for m in self.metrics() if isinstance(m, HistogramMetric)]

    def rows(self) -> Iterator[Tuple[str, str, str, str, float]]:
        """Flat ``(metric, name, client, field, value)`` rows for CSV."""
        for metric in self.metrics():
            yield from metric.rows()
