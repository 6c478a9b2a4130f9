"""Versioned checkpoint artifacts, and the supervised directory of them.

:func:`save_checkpoint` writes a :class:`repro.stream.StreamRouter`'s
full resumable state — classifier windows, similarity streams, ToF
cursors, supervision masks and failure records, queued observations,
eviction/shed flags, the estimate log and the engine step position — to
one artifact; :func:`load_checkpoint` rebuilds a router that resumes
**bit-identically** on the same remaining input stream (pinned by
``tests/test_stream_checkpoint.py``).  That contract turns a process
restart (or a grid-horizon rollover) into a non-event.

Format v3 is pickle-free, because all router state is arrays and plain
values.  An artifact is a fixed header (magic, version, JSON header
length, and the sha256 of everything after the fixed header); a JSON
header holding the state tree — configs, scalars, labels, failure
records, each array replaced by a ``{"__buffer__": k}`` reference — and
the buffer table (name, dtype, shape, offset); then the raw buffers,
16-byte aligned.  The reader verifies the digest before it parses the
JSON or touches a buffer, accepts only numeric dtypes, bounds every
buffer by the file, and decodes with ``np.frombuffer``.  Foreign, torn,
flipped or lying bytes raise :class:`CorruptCheckpoint`; a newer
version, a foreign format tag, and the pickle artifacts of formats v1
and v2 (refused unread: a pickle can run code) raise a plain
``ValueError``.  Writes go through a same-directory temp file and
``os.replace``, so a crash mid-save never leaves a torn artifact under
the final name.

A :class:`CheckpointManager` owns one checkpoint directory for a
supervising runtime (:class:`repro.resilience.ResilientService`): saves
on a deterministic sim-time cadence, artifacts named by their
service-clock instant, keep-last-K retention.  :func:`scan_checkpoints`
recovers: newest-first, it refuses bad artifacts loudly
(``resilience.corrupt_artifacts``, one ``checkpoint_rejected`` event
each) and returns the newest valid state, or raises
:class:`CorruptCheckpoint` listing every rejection — a service must
never silently start cold when it was asked to recover.

Live observers are deliberately *not* checkpointed: a restored service
binds the recorder/consumer the new process supplies, so telemetry
counts only this process and never double-counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.batched import BatchedMobilityClassifier
from repro.core.classifier import ClassifierConfig
from repro.core.tof_trend import ToFTrendConfig
from repro.sim.supervisor import SupervisorConfig
from repro.stream.router import StreamConfig, StreamRouter
from repro.telemetry.recorder import NULL_RECORDER, Recorder, shield

#: Artifact type tag.
CHECKPOINT_FORMAT = "repro.stream.checkpoint"
#: Current artifact format version; bump on incompatible layout changes.
#: v3 is the pickle-free columnar layout (see module docs).
CHECKPOINT_VERSION = 3
#: First bytes of every v3 artifact.
CHECKPOINT_MAGIC = b"REPROCKP"
_FIXED = struct.Struct("<8sIQ32s")
#: Size of the fixed header: magic, version, JSON header length, sha256.
FIXED_HEADER_BYTES = _FIXED.size
_ALIGN = 16
#: Buffer dtype kinds a v3 artifact may hold: bool, integers, floats, complex.
_NUMERIC_KINDS = "biufc"
#: Suffix of every managed artifact in a checkpoint directory.
ARTIFACT_SUFFIX = ".ckpt"


class CorruptCheckpoint(ValueError):
    """The artifact is unreadable, torn, or fails its integrity checks.

    Distinct from the "newer version" / "pickle artifact" refusals:
    those describe a file this library cannot or should not load; this
    one describes bytes that cannot be trusted at all.  :func:`scan_checkpoints` catches both to fall back to the
    next-newest artifact; everything else should let them propagate.
    """


# ------------------------------------------------------------------ state


def checkpoint_state(router: StreamRouter) -> Dict[str, Any]:
    """The complete artifact state for ``router``: a tree of plain
    values and arrays."""
    from repro import __version__

    classifier = router.classifier
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "repro_version": __version__,
        "stream_config": asdict(router.config),
        "classifier_config": asdict(classifier.config),
        "supervisor_config": asdict(router.supervisor_config),
        "record_history": classifier._history is not None,
        "router": router.state_dict(),
    }


def restore_router(
    state: Dict[str, Any],
    recorder: Recorder = NULL_RECORDER,
    on_estimate: Optional[Callable[[str, float, Any], None]] = None,
) -> StreamRouter:
    """Rebuild a router from an artifact state (see :func:`load_checkpoint`).

    A state that does not describe a router (missing fields, wrong
    shapes) is refused with :class:`CorruptCheckpoint`.
    """
    if state.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"not a {CHECKPOINT_FORMAT} artifact (format={state.get('format')!r})"
        )
    _check_version(state.get("version"))
    try:
        classifier_fields = dict(state["classifier_config"])
        tof_fields = classifier_fields.pop("tof")
        classifier_config = ClassifierConfig(
            tof=ToFTrendConfig(**tof_fields), **classifier_fields
        )
        router_state = state["router"]
        classifier = BatchedMobilityClassifier(
            list(router_state["labels"]),
            classifier_config,
            record_history=bool(state["record_history"]),
        )
        router = StreamRouter(
            classifier,
            config=StreamConfig(**state["stream_config"]),
            recorder=recorder,
            on_estimate=on_estimate,
            supervisor=SupervisorConfig(**state["supervisor_config"]),
        )
        router.load_state_dict(router_state)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CorruptCheckpoint(
            f"checkpoint state does not describe a router ({type(exc).__name__}: {exc})"
        ) from exc
    return router


def _check_version(version: Any) -> None:
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError(f"checkpoint version {version!r} is not a version number")
    if version > CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version!r} is newer than this library "
            f"supports ({CHECKPOINT_VERSION}); upgrade before resuming"
        )
    if version < CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version!r} is no longer readable "
            f"(this library reads version {CHECKPOINT_VERSION} only)"
        )


# ----------------------------------------------------------------- encode


def _encode_artifact(state: Dict[str, Any]) -> bytes:
    """The v3 artifact bytes for a :func:`checkpoint_state` tree."""
    buffers: List[Tuple[str, np.ndarray]] = []
    tree = _to_json_tree(state, "", buffers)
    table = []
    offset = 0
    for name, array in buffers:
        table.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape), "offset": offset}
        )
        offset += -(-array.nbytes // _ALIGN) * _ALIGN
    header = json.dumps({"buffers": table, "state": tree}, separators=(",", ":")).encode()
    # Pad the JSON so the first buffer starts 16-byte aligned in the file.
    header += b" " * (-(FIXED_HEADER_BYTES + len(header)) % _ALIGN)
    chunks: List[Any] = [header]
    for _, array in buffers:
        chunks.append(array)
        chunks.append(bytes(-array.nbytes % _ALIGN))
    body = b"".join(chunks)
    digest = hashlib.sha256(body).digest()
    return _FIXED.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(header), digest) + body


def _to_json_tree(node: Any, path: str, buffers: List[Tuple[str, np.ndarray]]) -> Any:
    if isinstance(node, np.ndarray):
        if node.dtype.kind not in _NUMERIC_KINDS:
            raise TypeError(f"checkpoint state {path!r} is a {node.dtype} array")
        buffers.append((path, np.ascontiguousarray(node)))
        return {"__buffer__": len(buffers) - 1}
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(f"checkpoint state {path!r} has a non-string key {key!r}")
            out[key] = _to_json_tree(value, f"{path}/{key}", buffers)
        return out
    if isinstance(node, (list, tuple)):
        return [_to_json_tree(value, f"{path}/{i}", buffers) for i, value in enumerate(node)]
    if isinstance(node, np.generic):
        return node.item()
    if node is None or isinstance(node, (str, int, float)):
        return node
    raise TypeError(f"checkpoint state {path!r} holds a {type(node).__name__}")


def save_checkpoint(
    router: StreamRouter,
    path: Union[str, os.PathLike],
    extra: Optional[Dict[str, Any]] = None,
) -> None:
    """Write ``router``'s state as a v3 artifact at ``path``.

    ``extra`` (plain values and arrays) rides along under the state's
    ``"service"`` key — supervising runtimes (:mod:`repro.resilience`)
    stash source cursors and rollover bookkeeping there; plain router
    resume ignores it.

    The write is atomic: the artifact lands in a same-directory temp
    file first and is moved over ``path`` with :func:`os.replace`, so a
    crash mid-save leaves either the previous artifact or none — never a
    torn one under the final name.
    """
    state = checkpoint_state(router)
    if extra is not None:
        state["service"] = dict(extra)
    data = _encode_artifact(state)
    final_path = os.fspath(path)
    temp_path = f"{final_path}.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(data)
    os.replace(temp_path, final_path)
    if router.recorder.enabled:
        router.recorder.event(
            "stream_checkpoint",
            router.clock_s,
            step=router.stepper.next_index,
            path=final_path,
        )


# ----------------------------------------------------------------- decode


def _decode_artifact(data: bytes, name: str) -> Dict[str, Any]:
    """The state tree of v3 artifact bytes; see :func:`read_checkpoint_state`."""
    if data[:1] == b"\x80":
        raise ValueError(
            f"checkpoint artifact {name!r} is a pickle (format v1/v2); refused "
            f"unread — pickles can run code — and only v{CHECKPOINT_VERSION} "
            "is readable: re-create the checkpoint with this library"
        )
    if not CHECKPOINT_MAGIC.startswith(data[: len(CHECKPOINT_MAGIC)]):
        raise CorruptCheckpoint(
            f"not a {CHECKPOINT_FORMAT} artifact: {name!r} does not start with the v3 magic"
        )
    if len(data) < FIXED_HEADER_BYTES:
        raise CorruptCheckpoint(
            f"checkpoint artifact {name!r} is truncated: {len(data)} bytes, "
            f"shorter than the {FIXED_HEADER_BYTES}-byte fixed header"
        )
    _, version, header_len, digest = _FIXED.unpack_from(data)
    _check_version(version)
    body = memoryview(data)[FIXED_HEADER_BYTES:]
    if header_len > len(body):
        raise CorruptCheckpoint(
            f"checkpoint artifact {name!r} is truncated: its {header_len}-byte "
            f"header runs past the end of the file"
        )
    actual = hashlib.sha256(body).digest()
    if actual != digest:
        raise CorruptCheckpoint(
            f"checkpoint artifact {name!r} failed its integrity check: "
            f"sha256 {actual.hex()} != stamped {digest.hex()}"
        )
    try:
        header = json.loads(bytes(body[:header_len]).decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise CorruptCheckpoint(
            f"checkpoint artifact {name!r} has an unreadable header ({exc})"
        ) from exc
    if not isinstance(header, dict) or not isinstance(header.get("state"), dict):
        raise CorruptCheckpoint(f"checkpoint artifact {name!r} header holds no state")
    arrays = _buffers(header.get("buffers"), body[header_len:], name)
    try:
        state = _from_json_tree(header["state"], arrays)
    except RecursionError as exc:
        raise CorruptCheckpoint(f"checkpoint artifact {name!r} state is too deep") from exc
    if state.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"not a {CHECKPOINT_FORMAT} artifact (format={state.get('format')!r})"
        )
    return state


def _buffers(table: Any, data: memoryview, name: str) -> List[np.ndarray]:
    """Each buffer of ``table`` as a read-only array over ``data``."""
    if not isinstance(table, list):
        raise CorruptCheckpoint(f"checkpoint artifact {name!r} has no buffer table")
    arrays = []
    for k, entry in enumerate(table):
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            offset = entry["offset"]
            if dtype.kind not in _NUMERIC_KINDS:
                raise ValueError(f"dtype {dtype} is not numeric")
            if not all(_is_count(n) for n in (offset, *shape)):
                raise ValueError(f"shape {shape} / offset {offset!r} are not counts")
            count = math.prod(shape)
            if offset + count * dtype.itemsize > len(data):
                raise ValueError(f"it ends past the end of the file ({len(data)} data bytes)")
            arrays.append(np.frombuffer(data, dtype, count, offset).reshape(shape))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptCheckpoint(
                f"checkpoint artifact {name!r} buffer {k} is invalid: {exc}"
            ) from exc
    return arrays


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _from_json_tree(node: Any, arrays: List[np.ndarray]) -> Any:
    if isinstance(node, dict):
        if "__buffer__" in node:
            k = node["__buffer__"]
            if not _is_count(k) or k >= len(arrays):
                raise CorruptCheckpoint(f"checkpoint state names a missing buffer {k!r}")
            return arrays[k]
        return {key: _from_json_tree(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_from_json_tree(value, arrays) for value in node]
    return node


def read_checkpoint_state(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read and integrity-check the artifact at ``path``; its state tree.

    Raises :class:`CorruptCheckpoint` for foreign, unreadable, truncated
    or lying bytes and digest mismatches, and plain :class:`ValueError`
    for other versions, foreign format tags and pickle artifacts — each
    with a distinct message, so operators (and the recovery scan) can
    tell a torn file from a wrong one.
    """
    name = os.fspath(path)
    try:
        with open(name, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CorruptCheckpoint(
            f"checkpoint artifact {name!r} is unreadable: {exc}"
        ) from exc
    return _decode_artifact(data, name)


def load_checkpoint(
    path: Union[str, os.PathLike],
    recorder: Recorder = NULL_RECORDER,
    on_estimate: Optional[Callable[[str, float, Any], None]] = None,
) -> StreamRouter:
    """Reconstruct a resumable router from an artifact written by
    :func:`save_checkpoint`.

    The restored service continues at the exact engine step the artifact
    captured; feeding it the same remaining observations produces
    bit-identical estimates to the uninterrupted run.
    """
    return restore_router(
        read_checkpoint_state(path), recorder=recorder, on_estimate=on_estimate
    )


# -------------------------------------------------------------- directory


def artifact_name(time_s: float) -> str:
    """The managed artifact filename for a checkpoint at ``time_s``.

    Millisecond-quantized and zero-padded, so lexical order is service
    clock order across rollovers and process restarts.
    """
    return f"service-{int(round(time_s * 1000.0)):013d}{ARTIFACT_SUFFIX}"


def list_artifacts(directory: str) -> List[str]:
    """Managed artifact paths in ``directory``, oldest first."""
    try:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.endswith(ARTIFACT_SUFFIX)
        )
    except FileNotFoundError:
        return []
    return [os.path.join(directory, name) for name in names]


def scan_checkpoints(
    directory: str, recorder: Recorder = NULL_RECORDER
) -> Tuple[Dict[str, Any], str, List[str]]:
    """The newest valid artifact state in ``directory``.

    Returns ``(state, path, rejected_paths)`` where ``rejected_paths``
    lists every newer artifact that failed its integrity/format check
    (each counted and traced).  Raises :class:`CorruptCheckpoint` when no
    artifact in the directory can be trusted.
    """
    recorder = shield(recorder)
    live = recorder.enabled
    rejected: List[str] = []
    reasons: List[str] = []
    for path in reversed(list_artifacts(directory)):
        try:
            state = read_checkpoint_state(path)
        except ValueError as exc:  # CorruptCheckpoint included
            rejected.append(path)
            reasons.append(f"{os.path.basename(path)}: {exc}")
            if live:
                recorder.count("resilience.corrupt_artifacts")
                recorder.event(
                    "checkpoint_rejected", 0.0, path=path, error=str(exc)
                )
            continue
        return state, path, rejected
    detail = "; ".join(reasons) if reasons else "directory holds no artifacts"
    raise CorruptCheckpoint(
        f"no valid checkpoint artifact in {directory!r}: {detail}"
    )


class CheckpointManager:
    """Deterministic sim-time checkpoint cadence over one directory."""

    def __init__(
        self,
        directory: str,
        every_s: float,
        keep: int = 3,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if every_s <= 0:
            raise ValueError(f"every_s must be positive, got {every_s}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.every_s = every_s
        self.keep = keep
        self.recorder = shield(recorder)
        os.makedirs(self.directory, exist_ok=True)
        self._next_due_s: Optional[float] = None

    # ------------------------------------------------------------- cadence

    def schedule_from(self, start_s: float) -> None:
        """Anchor the cadence: first checkpoint due at ``start_s + every_s``."""
        self._next_due_s = start_s + self.every_s

    def due(self, clock_s: float) -> bool:
        """Whether the service clock has reached the next cadence instant."""
        return self._next_due_s is not None and clock_s >= self._next_due_s

    @property
    def next_due_s(self) -> Optional[float]:
        """The next cadence instant (``None`` until scheduled)."""
        return self._next_due_s

    # -------------------------------------------------------------- saving

    def save(
        self,
        router: StreamRouter,
        extra: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Write one artifact for ``router`` now; prune per retention.

        Returns the artifact path.  Advances the cadence past the
        router's current clock, so a single slow ``advance`` burst never
        writes a backlog of stale checkpoints.
        """
        clock_s = router.clock_s
        path = os.path.join(self.directory, artifact_name(clock_s))
        save_checkpoint(router, path, extra=extra)
        if self._next_due_s is not None:
            while self._next_due_s <= clock_s:
                self._next_due_s += self.every_s
        retained = self._prune()
        if self.recorder.enabled:
            self.recorder.count("resilience.checkpoints")
            self.recorder.gauge("resilience.checkpoints_retained", float(retained))
        return path

    def _prune(self) -> int:
        """Drop the oldest artifacts beyond ``keep``; surviving count."""
        artifacts = list_artifacts(self.directory)
        excess = artifacts[: max(0, len(artifacts) - self.keep)]
        for path in excess:
            try:
                os.remove(path)
            except OSError:
                # Retention must never take the service down; the stray
                # artifact is counted and retried at the next prune.
                if self.recorder.enabled:
                    self.recorder.count("resilience.prune_errors")
        if excess and self.recorder.enabled:
            self.recorder.count("resilience.checkpoints_pruned", value=len(excess))
        return len(list_artifacts(self.directory))
