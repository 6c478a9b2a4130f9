"""The REP rule catalog.

Each rule encodes one project invariant that a real bug (or a live
convention the test suite depends on) taught us to enforce.  The
catalog with full history lives in ``docs/static-analysis.md``; the
short form:

* **REP001** — seeded-RNG discipline.  All randomness flows through
  explicit seeds/generators (``repro.util.rng``); a ``seed`` parameter
  that is accepted and ignored is the ``simulate_uplink`` bug class.
* **REP002** — no wall-clock in simulation code.  Supervisor backoff,
  trend windows, and schedules are *sim-time*; stopwatch reads are
  telemetry-only and must be gated behind a live recorder.
* **REP003** — telemetry names resolve to the registry
  (``repro.telemetry.names``), the contract the docs tables and export
  consumers rely on.
* **REP004** — no swallowed failures: a silent ``except`` in a
  session/supervisor path hides ``SessionError`` from quarantine
  accounting.
* **REP005** — float time/frequency parameters carry unit suffixes
  (``_s``/``_ms``/``_hz`` …) on public APIs.
* **REP006** — no pickle-family serialisation in the library: loading a
  pickle runs code, and checkpoint bytes read from disk are untrusted.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Diagnostic, Rule, build_parent_map
from repro.telemetry import names as telemetry_names


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` text of a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTable:
    """Which local names are bound to numpy / numpy.random / stdlib random."""

    def __init__(self, tree: ast.AST) -> None:
        self.numpy: Set[str] = set()
        self.numpy_random: Set[str] = set()
        self.stdlib_random: Set[str] = set()
        self.stdlib_random_funcs: Set[str] = set()
        self.numpy_default_rng: Set[str] = set()
        self.time_funcs: Dict[str, str] = {}  # local name -> function in `time`
        self.datetime_names: Set[str] = set()  # names bound to datetime/date classes
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy.add(local)
                    elif alias.name == "numpy.random":
                        target = alias.asname or "numpy"
                        (self.numpy_random if alias.asname else self.numpy).add(target)
                    elif alias.name == "random":
                        self.stdlib_random.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            self.numpy_default_rng.add(alias.asname or "default_rng")
                elif node.module == "random":
                    for alias in node.names:
                        self.stdlib_random_funcs.add(alias.asname or alias.name)
                elif node.module == "time":
                    for alias in node.names:
                        self.time_funcs[alias.asname or alias.name] = alias.name
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_names.add(alias.asname or alias.name)


#: numpy legacy module-level RNG functions — shared global state, banned.
_NUMPY_LEGACY = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "normal", "uniform",
        "standard_normal", "poisson", "exponential", "binomial", "gamma",
        "beta", "bytes", "get_state", "set_state", "RandomState",
    }
)

_SEED_PARAM_SUFFIXES = ("seed", "rng")


class SeededRngRule(Rule):
    """REP001 — all randomness is explicitly seeded and actually used."""

    code = "REP001"
    title = "seeded-RNG discipline"
    rationale = (
        "Bit-determinism under a seed is the reproduction contract; a naked "
        "RNG or an ignored seed parameter (the simulate_uplink bug, fixed in "
        "PR 3) silently breaks every golden."
    )
    exempt_suffixes = ("repro/util/rng.py",)

    def check(self, tree: ast.AST, source: str, path: str) -> Iterable[Diagnostic]:
        imports = _ImportTable(tree)
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                out.extend(self._check_call(node, imports, path))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(self._check_seed_params(node, path))
        return out

    def _check_call(
        self, node: ast.Call, imports: _ImportTable, path: str
    ) -> Iterable[Diagnostic]:
        func = node.func
        name = dotted_name(func)
        if name is None:
            return
        parts = name.split(".")
        root, leaf = parts[0], parts[-1]
        # numpy module-level RNG: np.random.<fn> or <numpy.random alias>.<fn>
        is_np_random = (
            (len(parts) >= 3 and root in imports.numpy and parts[-2] == "random")
            or (len(parts) == 2 and root in imports.numpy_random)
        )
        if is_np_random and leaf in _NUMPY_LEGACY:
            yield self.diag(
                path,
                node,
                f"legacy numpy global-state RNG `{name}()` — derive a generator "
                "via repro.util.rng (ensure_rng/spawn_rngs) instead",
            )
            return
        is_default_rng = (is_np_random and leaf == "default_rng") or (
            len(parts) == 1 and root in imports.numpy_default_rng
        )
        if is_default_rng and not node.args and not node.keywords:
            yield self.diag(
                path,
                node,
                f"`{name}()` without a seed draws fresh OS entropy — pass an "
                "explicit seed or use repro.util.rng.ensure_rng",
            )
            return
        # stdlib random: module attribute calls or from-imported functions.
        if len(parts) >= 2 and root in imports.stdlib_random:
            yield self.diag(
                path,
                node,
                f"stdlib `{name}()` uses hidden global RNG state — use a seeded "
                "numpy Generator (repro.util.rng) instead",
            )
        elif len(parts) == 1 and root in imports.stdlib_random_funcs:
            yield self.diag(
                path,
                node,
                f"`{root}()` (from stdlib random) uses hidden global RNG state — "
                "use a seeded numpy Generator (repro.util.rng) instead",
            )

    def _check_seed_params(
        self, node: ast.FunctionDef, path: str
    ) -> Iterable[Diagnostic]:
        if node.name.startswith("_"):
            return
        args = node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        seed_params = [
            a.arg
            for a in all_args
            if a.arg in _SEED_PARAM_SUFFIXES
            or a.arg.endswith(tuple(f"_{s}" for s in _SEED_PARAM_SUFFIXES))
        ]
        if not seed_params:
            return
        if self._is_signature_only(node.body):
            return  # abstract/protocol signature: the parameter is the contract
        used = {
            n.id
            for n in ast.walk(ast.Module(body=node.body, type_ignores=[]))
            if isinstance(n, ast.Name)
        }
        for param in seed_params:
            # `del seed  # signature kept uniform` counts: the body names it.
            if param not in used:
                yield self.diag(
                    path,
                    node,
                    f"public function `{node.name}` accepts `{param}` but never "
                    "uses it — the simulate_uplink bug class; thread it through "
                    "or `del` it with a comment",
                )


    @staticmethod
    def _is_signature_only(body: Sequence[ast.stmt]) -> bool:
        """True for abstract/protocol bodies: docstring + raise/pass/... only."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Raise)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            return False
        return True


_WALL_CLOCK_CALLS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow", "date.today"}
)
_STOPWATCH_FUNCS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
)


class WallClockRule(Rule):
    """REP002 — simulation code never reads the wall clock."""

    code = "REP002"
    title = "wall-clock ban in simulation code"
    rationale = (
        "Supervisor backoff, trend windows, and schedules are sim-time by "
        "design; a wall-clock read makes behaviour machine-dependent.  "
        "Stopwatch reads (perf_counter/monotonic) are telemetry-only and "
        "must be gated behind a live-recorder check."
    )
    contexts = frozenset({"src", "examples"})
    # The telemetry package *is* the stopwatch owner.
    exempt_suffixes = (
        "repro/telemetry/profiler.py",
        "repro/telemetry/recorder.py",
        "repro/telemetry/tracer.py",
        "repro/telemetry/export.py",
        "repro/telemetry/metrics.py",
        "repro/telemetry/names.py",
    )

    def check(self, tree: ast.AST, source: str, path: str) -> Iterable[Diagnostic]:
        imports = _ImportTable(tree)
        parents = build_parent_map(tree)
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = self._resolve(name, imports)
            if resolved in _WALL_CLOCK_CALLS:
                out.append(
                    self.diag(
                        path,
                        node,
                        f"wall-clock read `{name}()` in simulation code — use "
                        "sim-time (TimeGrid/clock.start_s); for elapsed "
                        "reporting use a guarded perf_counter",
                    )
                )
            elif resolved in _STOPWATCH_FUNCS and not node.args and not node.keywords:
                if not self._live_guarded(node, parents):
                    out.append(
                        self.diag(
                            path,
                            node,
                            f"unguarded stopwatch `{name}()` — gate it behind the "
                            "live-recorder check (`if live:` / `recorder.enabled`) "
                            "so disabled-telemetry runs never touch the clock",
                        )
                    )
        return out

    @staticmethod
    def _resolve(name: str, imports: _ImportTable) -> Optional[str]:
        parts = name.split(".")
        if len(parts) == 1:
            # from time import perf_counter / time
            target = imports.time_funcs.get(parts[0])
            if target == "time":
                return "time.time"
            if target == "time_ns":
                return "time.time_ns"
            if target in _STOPWATCH_FUNCS:
                return target
            return None
        tail = ".".join(parts[-2:])
        if tail in _WALL_CLOCK_CALLS:
            return tail
        if parts[0] == "time" and parts[-1] in _STOPWATCH_FUNCS:
            return parts[-1]
        if parts[-1] in ("now", "utcnow") and parts[-2] == "datetime":
            return f"datetime.{parts[-1]}"
        return None

    @staticmethod
    def _test_mentions_live(test: ast.expr) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Name) and sub.id in ("live", "enabled"):
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
        return False

    @classmethod
    def _live_guarded(cls, node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
        # Guarded means: some ancestor sits in the *true* branch of a
        # conditional whose test mentions the live-recorder flag.
        current: Optional[ast.AST] = node
        while current is not None:
            parent = parents.get(current)
            if isinstance(parent, (ast.If, ast.While)):
                in_true_branch = any(current is stmt for stmt in parent.body)
                if in_true_branch and cls._test_mentions_live(parent.test):
                    return True
            elif isinstance(parent, ast.IfExp):
                if current is parent.body and cls._test_mentions_live(parent.test):
                    return True
            current = parent
        return False


_METRIC_METHODS = frozenset(
    {"count", "counter", "gauge", "set_gauge", "observe", "histogram"}
)
_EVENT_METHODS = frozenset({"event", "emit"})
_RECEIVER_SUFFIXES = ("recorder", "metrics", "tracer", "registry")


class TelemetrySchemaRule(Rule):
    """REP003 — emitted telemetry names resolve to the registry."""

    code = "REP003"
    title = "telemetry-schema consistency"
    rationale = (
        "repro/telemetry/names.py is the single source of truth for "
        "counter/gauge/histogram/event names; the docs tables are generated "
        "from it and exports treat it as a stable contract.  An undeclared "
        "name is invisible to every consumer reading the schema."
    )
    contexts = frozenset({"src"})
    exempt_suffixes = (
        "repro/telemetry/names.py",
        "repro/telemetry/metrics.py",  # the registry implementation itself
    )

    def check(self, tree: ast.AST, source: str, path: str) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method in _METRIC_METHODS:
                kinds: Tuple[str, ...] = ("counter", "gauge", "histogram")
            elif method in _EVENT_METHODS:
                kinds = ("event",)
            else:
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None or not receiver.split(".")[-1].lower().endswith(
                _RECEIVER_SUFFIXES
            ):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if not any(telemetry_names.is_registered(first.value, kind) for kind in kinds):
                    out.append(
                        self.diag(
                            path,
                            node,
                            f"telemetry name {first.value!r} is not declared in "
                            "repro/telemetry/names.py — register it (and regenerate "
                            "docs/observability.md) or fix the typo",
                        )
                    )
            elif isinstance(first, ast.JoinedStr):
                prefix = ""
                for value in first.values:
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        prefix += value.value
                    else:
                        break
                if prefix and not any(
                    telemetry_names.match_prefix(prefix, kind) for kind in kinds
                ):
                    out.append(
                        self.diag(
                            path,
                            node,
                            f"telemetry f-string name starting {prefix!r} matches no "
                            "registered name or pattern in repro/telemetry/names.py",
                        )
                    )
        return out


class SwallowedFailureRule(Rule):
    """REP004 — no silent exception swallowing."""

    code = "REP004"
    title = "no swallowed failures"
    rationale = (
        "A bare `except:` or an `except Exception: pass` in a session or "
        "supervisor path hides SessionError from quarantine accounting — "
        "the run 'succeeds' with silently-wrong survivors.  Absorbing "
        "handlers must at least count what they absorbed."
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, tree: ast.AST, source: str, path: str) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                out.append(
                    self.diag(
                        path,
                        node,
                        "bare `except:` also swallows KeyboardInterrupt/SystemExit — "
                        "catch a concrete exception type",
                    )
                )
                continue
            if self._is_broad(node.type) and self._body_swallows(node.body):
                out.append(
                    self.diag(
                        path,
                        node,
                        "`except Exception` that only passes swallows failures "
                        "silently — re-raise, narrow the type, or at least count "
                        "the absorbed error (supervisor.degrade_errors pattern)",
                    )
                )
        return out

    def _is_broad(self, type_node: ast.expr) -> bool:
        if isinstance(type_node, ast.Name):
            return type_node.id in self._BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(el) for el in type_node.elts)
        return False

    @staticmethod
    def _body_swallows(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / `...`
            return False
        return True


#: Name components that denote a duration or frequency quantity.
_TIME_STEMS = frozenset(
    {
        "duration", "timeout", "interval", "period", "delay", "latency",
        "elapsed", "backoff", "lag", "horizon", "airtime", "deadline",
    }
)
_FREQ_STEMS = frozenset({"freq", "frequency", "bandwidth"})
_UNIT_SUFFIXES = frozenset({"s", "ms", "us", "ns", "hz", "khz", "mhz", "ghz"})


class UnitSuffixRule(Rule):
    """REP005 — float time/frequency parameters carry unit suffixes."""

    code = "REP005"
    title = "unit-suffix convention for time/frequency parameters"
    rationale = (
        "The ToF pipeline mixes seconds, milliseconds, and cycles; the "
        "`_s`/`_ms`/`_hz` suffix convention is what lets a reader (and the "
        "time-aware filters of PR 3) trust a quantity's unit at the call "
        "site without chasing docstrings."
    )
    contexts = frozenset({"src"})

    def check(self, tree: ast.AST, source: str, path: str) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            defaults: Dict[str, Optional[ast.expr]] = dict(
                zip([a.arg for a in reversed(args.args)], list(reversed(args.defaults)))
            )
            defaults.update(
                (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            )
            for arg in all_args:
                if not self._is_float_like(arg.annotation, defaults.get(arg.arg)):
                    continue
                components = arg.arg.lower().split("_")
                if components[-1] in _UNIT_SUFFIXES:
                    continue
                if any(c in _TIME_STEMS or c in _FREQ_STEMS for c in components):
                    yield_unit = "_hz" if any(c in _FREQ_STEMS for c in components) else "_s"
                    out.append(
                        self.diag(
                            path,
                            node,
                            f"parameter `{arg.arg}` of public `{node.name}` looks like "
                            f"a time/frequency quantity but has no unit suffix — name "
                            f"it `{arg.arg}{yield_unit}` (or _ms/_us/_mhz …)",
                        )
                    )
        return out

    @staticmethod
    def _is_float_like(annotation: Optional[ast.expr], default: Optional[ast.expr]) -> bool:
        def ann_is_float(node: Optional[ast.expr]) -> bool:
            if node is None:
                return False
            if isinstance(node, ast.Name):
                return node.id == "float"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                return "float" in node.value
            if isinstance(node, ast.Subscript):  # Optional[float] / Union[...]
                return any(ann_is_float(sub) for sub in ast.walk(node.slice) if isinstance(sub, ast.Name))
            return False

        if ann_is_float(annotation):
            return True
        return isinstance(default, ast.Constant) and isinstance(default.value, float)


class PickleFreeRule(Rule):
    """REP006 — no pickle-family serialisation in the library."""

    code = "REP006"
    title = "pickle-free library"
    rationale = (
        "Unpickling runs whatever code the bytes name, and the library "
        "reads checkpoint artifacts back from disk: a foreign or tampered "
        "file must never execute.  Library state is arrays and plain "
        "values, written and read without pickle (checkpoint format v3)."
    )
    contexts = frozenset({"src"})

    _MODULES = frozenset({"pickle", "cPickle", "_pickle", "dill", "shelve", "marshal"})

    def check(self, tree: ast.AST, source: str, path: str) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                modules = []
            for module in modules:
                if module.split(".")[0] in self._MODULES:
                    out.append(
                        self.diag(
                            path,
                            node,
                            f"`{module}` deserialises by running code — store arrays "
                            "and plain values (see repro.stream.checkpoint)",
                        )
                    )
            if (
                isinstance(node, ast.keyword)
                and node.arg == "allow_pickle"
                and isinstance(node.value, ast.Constant)
                and node.value.value is True
            ):
                out.append(
                    self.diag(
                        path,
                        node.value,
                        "`allow_pickle=True` lets numpy unpickle object arrays — "
                        "keep the default (False)",
                    )
                )
        return out


#: The rule set, in catalog order.
ALL_RULES: Tuple[Rule, ...] = (
    SeededRngRule(),
    WallClockRule(),
    TelemetrySchemaRule(),
    SwallowedFailureRule(),
    UnitSuffixRule(),
    PickleFreeRule(),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
