"""Span tracing for the traced benchmark run, recorded from outside the program.

The program under test is not edited: :class:`Tracer.wrap` replaces a
public method (or property) of one of its classes with a wrapper that
records a span around each call, and :meth:`Tracer.restore` puts the
original back.  Each span has a name, a start, an end and a parent
(the span open when it started).  Aggregates are kept exactly for every
span; the span records themselves are kept in memory up to
:data:`KEEP_SPANS` and written out once, at the end of the run.

A layer's self time is the duration of its spans minus the part covered
by their child spans.  Time inside a wrapped call that reaches code no
wrapper covers counts as that span's self time.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer of each span name prefix, in the order the table prints them.
LAYERS: Tuple[str, ...] = (
    "channel",
    "mobility",
    "phy",
    "sim",
    "controller",
    "stream",
    "resilience",
    "telemetry",
)

#: Packages each layer stands for, for the printed table.
LAYER_PACKAGES: Dict[str, str] = {
    "channel": "repro.channel + repro.wlan",
    "mobility": "repro.mobility",
    "phy": "repro.phy",
    "sim": "repro.sim + repro.core",
    "controller": "repro.controller",
    "stream": "repro.stream",
    "resilience": "repro.resilience",
    "telemetry": "repro.telemetry",
}

#: Span records kept in memory per run; later spans count only in the
#: aggregates (and in ``Tracer.dropped``).
KEEP_SPANS = 100_000


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Nested spans of one single-threaded run (see module docs)."""

    def __init__(self, durations_of: Tuple[str, ...] = ()) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        #: Spans entered from a span of another layer (or from no span).
        self.entries: List[int] = []
        self._layers: List[str] = []
        self._durations_of = set(durations_of)
        #: Every duration of the span names in ``durations_of``.
        self.durations: Dict[str, array] = {}
        self._durations_by_id: Dict[int, array] = {}
        self._stack: List[List[Any]] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.dropped = 0
        self._patched: List[Tuple[type, str, Any]] = []

    # -------------------------------------------------------------- spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self.entries.append(0)
            self._layers.append(layer_of(name))
            if name in self._durations_of:
                self.durations[name] = self._durations_by_id[nid] = array("d")
        return nid

    def enter(self, nid: int) -> List[Any]:
        stack = self._stack
        parent = stack[-1] if stack else None
        if len(self.starts) < KEEP_SPANS:
            index = len(self.starts)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.name_ids.append(nid)
            self.parents.append(parent[3] if parent is not None else -1)
        else:
            index = -1
            self.dropped += 1
        if parent is None or self._layers[parent[0]] != self._layers[nid]:
            self.entries[nid] += 1
        frame = [nid, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: List[Any]) -> None:
        end = perf_counter()
        self._stack.pop()
        nid, start, child_s, index = frame
        duration = end - start
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.starts[index] = start
            self.ends[index] = end
        durations = self._durations_by_id.get(nid)
        if durations is not None:
            durations.append(duration)

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    # ------------------------------------------------------------ wrapping

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> bool:
        """Trace calls of ``owner.attr`` (defined on ``owner`` itself).

        Returns ``False`` and changes nothing when ``owner`` does not
        define ``attr``, so a renamed method reads as zero calls rather
        than stopping the benchmark.
        """
        raw = owner.__dict__.get(attr)
        if raw is None:
            return False
        nid = self.name_id(name)
        tracer = self

        def traced(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = tracer.enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        if isinstance(raw, property):
            replacement: Any = property(traced(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        elif callable(raw):
            replacement = traced(raw)
        else:
            return False
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -------------------------------------------------------------- results

    def stat(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of one span name (zeros if unseen)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + self.self_s[nid]
        return out

    def layer_entries(self, layer: str) -> int:
        return sum(
            self.entries[nid]
            for nid, name in enumerate(self.names)
            if layer_of(name) == layer
        )

    def write(self, path: str) -> None:
        """Write the kept spans and the per-name aggregates as JSON."""
        payload = {
            "names": self.names,
            "spans": {
                "name": list(self.name_ids),
                "start_s": list(self.starts),
                "end_s": list(self.ends),
                "parent": list(self.parents),
            },
            "dropped_spans": self.dropped,
            "per_name": {
                name: {
                    "calls": self.calls[nid],
                    "total_s": self.total_s[nid],
                    "self_s": self.self_s[nid],
                }
                for nid, name in enumerate(self.names)
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid
        self._frame: Optional[List[Any]] = None

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.enter(self._nid)
        return self

    def __exit__(self, *exc: Any) -> None:
        assert self._frame is not None
        self._tracer.exit(self._frame)


def format_layer_table(workload: str, tracer: Tracer, wall_s: float, overhead: float) -> str:
    """The per-layer self-time table of one traced workload."""
    by_layer = tracer.layer_self_s()
    attributed = sum(by_layer[layer] for layer in LAYERS)
    lines = [
        f"per-layer self time, workload {workload} (traced wall {wall_s:.3f} s)",
        f"  {'layer':<12}{'packages':<28}{'self_s':>10}{'share':>8}",
    ]
    for layer in LAYERS:
        share = by_layer[layer] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {layer:<12}{LAYER_PACKAGES[layer]:<28}{by_layer[layer]:>10.3f}{share:>8.1%}"
        )
    remainder = wall_s - attributed
    lines.append(
        f"  {'unattributed':<40}{remainder:>10.3f}"
        f"{(remainder / wall_s if wall_s > 0 else 0.0):>8.1%}"
    )
    lines.append(f"  trace.overhead {overhead:.3f}x (traced / untraced wall per unit)")
    if tracer.dropped:
        lines.append(f"  spans kept {len(tracer.starts)}, dropped {tracer.dropped}")
    return "\n".join(lines)
