"""Output checks of the benchmark.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  The checks take plain values, so the smoke test
can feed each one a deliberately wrong input.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: ``stream.*`` counters that each record one refused ``offer()``.
REFUSAL_COUNTERS: Tuple[str, ...] = (
    "stream.unknown_client",
    "stream.shed",
    "stream.late",
    "stream.blocked",
)


def _estimate_key(estimate: Any) -> Any:
    to_dict = getattr(estimate, "to_dict", None)
    return to_dict() if to_dict is not None else estimate


def estimate_digests(estimates: Mapping[str, Sequence[Any]]) -> Dict[str, str]:
    """One sha256 per client over its estimates, in order, every field."""
    return {
        label: hashlib.sha256(
            json.dumps([_estimate_key(e) for e in stream], sort_keys=True).encode()
        ).hexdigest()
        for label, stream in estimates.items()
    }


def check_stream_equals_batch(
    streamed: Mapping[str, str], batch: Mapping[str, Sequence[Any]]
) -> List[str]:
    """Estimates delivered by the service equal the one-shot batch run,
    client by client.

    ``streamed`` holds the service's :func:`estimate_digests`, so a run
    need not keep its estimates until the batch reference is built.
    """
    failures: List[str] = []
    want = estimate_digests(batch)
    if set(streamed) != set(want):
        missing = sorted(set(want) - set(streamed))
        extra = sorted(set(streamed) - set(want))
        failures.append(
            f"stream != batch: clients missing {missing[:3]} extra {extra[:3]}"
        )
    differ = sorted(
        label for label in set(streamed) & set(want) if streamed[label] != want[label]
    )
    if differ:
        failures.append(f"stream != batch: estimates of {len(differ)} clients differ, {differ[:3]}")
    return failures


def check_offer_accounting(
    offered: int,
    accepted: int,
    refused: int,
    misjudged: int = 0,
    expected_refused: Optional[int] = None,
    counters: Optional[Mapping[str, float]] = None,
) -> List[str]:
    """Offered = accepted + refused, from ``offer()`` return values.

    ``misjudged`` counts offers whose outcome contradicts the input
    (a real observation refused, an injected one accepted).  With
    ``expected_refused`` the refusals must equal the injected count;
    with ``counters`` (``stream.*`` telemetry totals) the counters must
    agree with the return values.
    """
    failures: List[str] = []
    if offered != accepted + refused:
        failures.append(f"offered {offered} != accepted {accepted} + refused {refused}")
    if misjudged:
        failures.append(f"{misjudged} offers accepted or refused against their input")
    if expected_refused is not None and refused != expected_refused:
        failures.append(f"refused {refused} != injected late/unknown {expected_refused}")
    if counters is not None:
        counted_accepted = counters.get("stream.accepted", 0.0)
        counted_refused = sum(counters.get(name, 0.0) for name in REFUSAL_COUNTERS)
        if counted_accepted != accepted:
            failures.append(
                f"stream.accepted counter {counted_accepted:.0f} != accepted {accepted}"
            )
        if counted_refused != refused:
            failures.append(
                f"stream refusal counters {counted_refused:.0f} != refused {refused}"
            )
    return failures


def check_recovery(
    live: Tuple[float, int, int], recovered: Tuple[float, int, int]
) -> List[str]:
    """The recovered service resumes at the live service's
    ``(clock_s, rollovers, total_steps)``."""
    if tuple(live) != tuple(recovered):
        return [f"recovered (clock_s, rollovers, total_steps) {recovered} != live {live}"]
    return []


def check_storm_hints(
    hint_times: Mapping[str, Sequence[float]],
    labels: Sequence[str],
    grid_times: Sequence[float],
) -> Tuple[List[str], int]:
    """Every client has one estimate for every step after the first.

    Returns ``(failures, missing_client_steps)``.
    """
    expected = [float(t) for t in grid_times[1:]]
    failures: List[str] = []
    missing = 0
    for label in labels:
        got = [float(t) for t in hint_times.get(label, ())]
        missing += len(set(expected) - set(got))
        if got != expected:
            if len(failures) < 3:
                failures.append(
                    f"storm: {label} has estimates at {len(got)} steps, "
                    f"expected every step after the first ({len(expected)})"
                )
    return failures, missing


def check_storm_epochs(epoch_times: Sequence[float], n_steps: int, epoch_every: int) -> List[str]:
    expected = -(-n_steps // epoch_every)
    if len(epoch_times) != expected:
        return [f"storm: {len(epoch_times)} controller epochs, expected {expected}"]
    return []


def check_same_digest(digests: Iterable[str]) -> List[str]:
    """Every unit of one run (same seed, same inputs) gives the same outputs."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"units of one run disagree: digests {distinct}"]
    return []


def storm_digest(
    deliveries: Sequence[Tuple[str, Any]], totals: Dict[str, int], epoch_times: Sequence[float],
    association: Any,
) -> str:
    """sha256 over the hint streams in delivery order and the controller
    totals, epochs and association timeline."""
    h = hashlib.sha256()
    for label, estimate in deliveries:
        h.update(json.dumps([label, _estimate_key(estimate)], sort_keys=True).encode())
    h.update(json.dumps(sorted(totals.items())).encode())
    h.update(json.dumps([float(t) for t in epoch_times]).encode())
    h.update(repr(getattr(association, "tolist", lambda: association)()).encode())
    return h.hexdigest()
