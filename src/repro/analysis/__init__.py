"""repro.analysis — the project-invariant checker.

An AST linter that enforces this repository's reproducibility contract
as named ``REPxxx`` rules with ``file:line`` diagnostics::

    PYTHONPATH=src python -m repro.analysis src tests benchmarks examples

Rules (full catalog with history in ``docs/static-analysis.md``):

========  ==========================================================
REP001    seeded-RNG discipline (no naked/global RNGs; ``seed``
          parameters must be used)
REP002    wall-clock ban in simulation code (sim-time only;
          stopwatches gated behind live telemetry)
REP003    telemetry names resolve to ``repro.telemetry.names``
REP004    no swallowed failures (bare/silent ``except``)
REP005    unit suffixes (``_s``/``_ms``/``_hz``) on float
          time/frequency parameters of public APIs
REP006    pickle-free library (no ``pickle``/``dill``/``shelve``/
          ``marshal`` imports, no ``allow_pickle=True``)
REP000    suppression hygiene (reported by the engine itself)
========  ==========================================================

Suppress a finding only with a written justification::

    value = perf_counter()  # repro: noqa-REP002 CLI report outside the run

The companion mypy strictness ratchet lives in
:mod:`repro.analysis.ratchet` (``python -m repro.analysis.ratchet``).
"""

from repro.analysis.engine import (
    Diagnostic,
    Rule,
    SUPPRESSION_CODE,
    check_file,
    check_paths,
    check_source,
    infer_context,
    iter_python_files,
    parse_suppressions,
)
from repro.analysis.rules import (
    ALL_RULES,
    RULES_BY_CODE,
    SeededRngRule,
    SwallowedFailureRule,
    TelemetrySchemaRule,
    UnitSuffixRule,
    WallClockRule,
)

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "Rule",
    "RULES_BY_CODE",
    "SUPPRESSION_CODE",
    "SeededRngRule",
    "SwallowedFailureRule",
    "TelemetrySchemaRule",
    "UnitSuffixRule",
    "WallClockRule",
    "check_file",
    "check_paths",
    "check_source",
    "infer_context",
    "iter_python_files",
    "parse_suppressions",
]
