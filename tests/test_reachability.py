"""Every library module has a caller outside the test suite.

A module that only its own tests import is dead weight: it still costs
review, typing and test time, but nothing the project runs depends on it.
This test parses the imports of ``src/``, ``examples/``, ``benchmarks/``
and ``perfbench/`` with :mod:`ast` and fails for any ``src/repro`` module
none of them import.  Package ``__init__`` and ``__main__`` modules are
entry points, not dependencies, and are exempt.
"""

import ast
from importlib.util import resolve_name
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
CALLER_ROOTS = ("src", "examples", "benchmarks", "perfbench")

#: Modules reached only by a CI step rather than by an import, with why.
ALLOWLIST = {
    "repro.analysis.ratchet": "run by CI as `python -m repro.analysis.ratchet --check`",
    "repro.io.stream": "exercised by the CSI-replay CI step (tests/test_stream.py, test_io.py)",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: Path):
    """Every dotted name ``path`` imports, submodules of ``from`` imports included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = _module_name(path) if path.is_relative_to(SRC) else None
    if package is not None and path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if package is None:
                    continue
                base = resolve_name("." * node.level + base, package).rstrip(".")
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module":
            if node.args and isinstance(node.args[0], ast.Constant):
                yield str(node.args[0].value)


def unreachable_modules():
    modules = {
        _module_name(path): path
        for path in (SRC / "repro").rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }
    imported = set()
    for root in CALLER_ROOTS:
        for path in (REPO_ROOT / root).rglob("*.py"):
            imported.update(
                name for name in _imported_names(path) if modules.get(name) != path
            )
    return sorted(set(modules) - imported)


def test_every_module_has_a_caller():
    unreachable = [name for name in unreachable_modules() if name not in ALLOWLIST]
    assert unreachable == [], (
        f"modules nothing in {', '.join(CALLER_ROOTS)} imports: {unreachable}; "
        "wire each into a caller or delete it with the tests that cover only it"
    )


def test_allowlist_is_current():
    # An allowlisted module that gained an importer (or was deleted) no
    # longer needs its exemption.
    assert sorted(ALLOWLIST) == [name for name in unreachable_modules() if name in ALLOWLIST]
