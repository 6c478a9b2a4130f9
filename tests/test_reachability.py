"""Every library module and public name has a caller outside the test suite.

A module or function that only its own tests use is dead weight: it still
costs review, typing and test time, but nothing the project runs depends
on it.  This test parses ``src/``, ``examples/``, ``benchmarks/`` and
``perfbench/`` with :mod:`ast` and fails for

* any ``src/repro`` module none of them import (package ``__init__`` and
  ``__main__`` modules are entry points, not dependencies, and are exempt);
* any public top-level function or class of ``src/repro`` none of them
  reference.  ``Name``, ``Attribute`` and ``from``-import references are
  resolved through package re-exports to the defining module.  A re-export
  in a package ``__init__`` (or its ``__all__``) is not a use, and neither
  is a name's reference to itself inside its own definition.
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

_FAULT_TOOLKIT = (
    "fault injector behind the fault-plan equivalence contract "
    "(tests/test_batched_classifier.py, tests/test_faults.py compose it into plans)"
)

#: Public names nothing outside the tests references, with why they stay.
NAME_ALLOWLIST = {
    "repro.faults.injectors.DropFault": _FAULT_TOOLKIT,
    "repro.faults.injectors.NaNFault": _FAULT_TOOLKIT,
    "repro.faults.injectors.DuplicateFault": _FAULT_TOOLKIT,
    "repro.faults.injectors.DelayFault": _FAULT_TOOLKIT,
    "repro.faults.chaos.ChannelEvalFault": (
        "fault injector of CI's chaos-suite step: tests/test_supervisor.py uses it to "
        "prove SimulationEngine.for_clients restores the caller's recorder on failure"
    ),
    "repro.io.stream.replay_source": (
        "the entry point of repro.io.stream, run by the CSI-replay CI step "
        "(tests/test_stream.py::TestReplaySource)"
    ),
    "repro.experiments.common.run_classification": (
        "the end-to-end golden tests/test_integration.py scores the classification "
        "pipeline through it, and the goldens stay unedited"
    ),
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package_of(path: Path):
    """The package relative imports in ``path`` resolve against (None outside src)."""
    if not path.is_relative_to(SRC):
        return None
    package = _module_name(path)
    return package if path.name == "__init__.py" else package.rpartition(".")[0]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _from_base(node: ast.ImportFrom, package):
    """Absolute module of a ``from`` import, or None for a relative one outside src."""
    base = node.module or ""
    if node.level:
        if package is None:
            return None
        base = resolve_name("." * node.level + base, package).rstrip(".")
    return base


def _imported_names(path: Path):
    """Every dotted name ``path`` imports, submodules of ``from`` imports included."""
    package = _package_of(path)
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, package)
            if base is None:
                continue
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module":
            if node.args and isinstance(node.args[0], ast.Constant):
                yield str(node.args[0].value)


def _library_modules():
    return {
        _module_name(path): path
        for path in (SRC / "repro").rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }


def _caller_files():
    for root in CALLER_ROOTS:
        yield from (REPO_ROOT / root).rglob("*.py")


def unreachable_modules():
    modules = _library_modules()
    imported = set()
    for path in _caller_files():
        imported.update(
            name for name in _imported_names(path) if modules.get(name) != path
        )
    return sorted(set(modules) - imported)


# ------------------------------------------------------------- public names


def _public_definitions():
    """Dotted name of every public top-level function and class in src/repro."""
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        module = _module_name(path)
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    names.add(f"{module}.{node.name}")
    return names


def _reexports():
    """``package.name`` → ``module.name`` for every import in a package ``__init__``."""
    table = {}
    for path in (SRC / "repro").rglob("__init__.py"):
        package = _module_name(path)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                base = _from_base(node, package)
                for alias in node.names:
                    table[f"{package}.{alias.asname or alias.name}"] = f"{base}.{alias.name}"
    return table


def _dotted(node: ast.expr, aliases):
    """``a.b.c`` for an attribute chain rooted at an imported name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    return ".".join([aliases[node.id], *reversed(parts)])


def _references(path: Path):
    """Dotted names ``path`` refers to (unresolved; re-exports not followed).

    Imports in a package ``__init__`` are re-exports and refer to nothing.
    """
    tree = _parse(path)
    is_init = path.name == "__init__.py"
    package = _package_of(path)
    module = _module_name(path) if path.is_relative_to(SRC) else None
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.partition(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, package)
            if base is None:
                continue
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
                if not is_init:
                    yield f"{base}.{alias.name}"
    if module is not None:
        # A module's own top-level names, except where a name's own
        # definition refers to itself.
        own = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for name in own:
            aliases.setdefault(name, f"{module}.{name}")
    for statement in tree.body:
        defines = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node, aliases)
                if dotted is not None:
                    yield dotted
            elif isinstance(node, ast.Name) and node.id in aliases and node.id != defines:
                yield aliases[node.id]


def _resolve(dotted: str, definitions, reexports):
    """The definition ``dotted`` (or its longest prefix) names, or None."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        name = ".".join(parts[:end])
        seen = set()
        while name not in definitions and name in reexports and name not in seen:
            seen.add(name)
            name = reexports[name]
        if name in definitions:
            return name
    return None


def unreachable_names():
    definitions = _public_definitions()
    reexports = _reexports()
    used = set()
    for path in _caller_files():
        for dotted in _references(path):
            target = _resolve(dotted, definitions, reexports)
            if target is not None:
                used.add(target)
    return sorted(definitions - used)


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


def test_every_public_name_has_a_caller():
    unreachable = [name for name in unreachable_names() if name not in NAME_ALLOWLIST]
    assert unreachable == [], (
        f"public functions and classes nothing in {', '.join(CALLER_ROOTS)} "
        f"references: {unreachable}; wire each into a caller, make it private, "
        "or delete it with the tests that cover only it"
    )


def test_name_allowlist_is_current():
    # An allowlisted name that gained a caller (or was deleted) no longer
    # needs its exemption.
    assert sorted(NAME_ALLOWLIST) == [
        name for name in unreachable_names() if name in NAME_ALLOWLIST
    ]
