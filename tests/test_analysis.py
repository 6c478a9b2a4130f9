"""Tests for repro.analysis: the rule goldens, suppression hygiene,
the self-check over the real tree, and the mypy ratchet.

The fixture corpus in ``tests/analysis_fixtures/`` is the executable
specification: each rule has a file of violations annotated with
``# expect: REPxxx`` comments, and these tests fail if the linter
reports anything more or less than the annotations promise.
"""

import io
import json
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    RULES_BY_CODE,
    SUPPRESSION_CODE,
    WallClockRule,
    check_file,
    check_paths,
    check_source,
    infer_context,
    parse_suppressions,
)
from repro.analysis.engine import SKIP_DIRS, iter_python_files
from repro.analysis.ratchet import (
    STRICT_PACKAGES,
    compare,
    load_baseline,
    package_of,
    parse_mypy_output,
    run_mypy,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(REP\d{3}(?:\s*,\s*REP\d{3})*)")


def expected_findings(path: Path):
    """Parse ``# expect: REPxxx`` comments into {(line, code), ...}."""
    expected = set()
    with tokenize.open(path) as fh:
        tokens = tokenize.generate_tokens(io.StringIO(fh.read()).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _EXPECT_RE.search(token.string)
            if match:
                for code in re.split(r"\s*,\s*", match.group(1)):
                    expected.add((token.start[0], code))
    return expected


class TestRuleGoldens:
    """Each rule fires exactly where its fixture says it must."""

    @pytest.mark.parametrize(
        "fixture",
        ["rep001_rng.py", "rep002_wall_clock.py", "rep003_telemetry.py",
         "rep004_swallowed.py", "rep005_units.py", "rep006_pickle.py"],
    )
    def test_fixture_matches_expectations(self, fixture):
        path = FIXTURES / fixture
        expected = expected_findings(path)
        assert expected, f"{fixture} has no # expect: annotations"
        actual = {
            (diag.line, diag.code)
            for diag in check_file(str(path), context="src")
        }
        assert actual == expected

    @pytest.mark.parametrize("code", sorted(RULES_BY_CODE))
    def test_every_rule_demonstrably_fires(self, code):
        fired = set()
        for fixture in FIXTURES.glob("rep*.py"):
            for diag in check_file(str(fixture), context="src"):
                fired.add(diag.code)
        assert code in fired

    def test_clean_fixture_is_clean(self):
        assert check_file(str(FIXTURES / "clean.py"), context="src") == []


class TestSuppressionHygiene:
    """`# repro: noqa-REPxxx <reason>` semantics, including the failure modes."""

    @pytest.fixture(scope="class")
    def diagnostics(self):
        return check_file(str(FIXTURES / "suppression_cases.py"), context="src")

    def test_justified_suppression_silences(self, diagnostics):
        # Line 11 holds a justified noqa-REP002: no finding at all.
        assert not [d for d in diagnostics if d.line == 11]

    def test_missing_justification_keeps_finding_and_flags_noqa(self, diagnostics):
        codes = sorted(d.code for d in diagnostics if d.line == 15)
        assert codes == [SUPPRESSION_CODE, "REP002"]

    def test_unused_suppression_is_flagged(self, diagnostics):
        codes = [d.code for d in diagnostics if d.line == 19]
        assert codes == [SUPPRESSION_CODE]
        assert "unused suppression" in [d for d in diagnostics if d.line == 19][0].message

    def test_unknown_rule_code_is_flagged(self, diagnostics):
        flagged = [d for d in diagnostics if d.line == 23]
        assert [d.code for d in flagged] == [SUPPRESSION_CODE]
        assert "REP998" in flagged[0].message

    def test_docstring_mention_is_not_a_suppression(self):
        source = '"""Docs may say # repro: noqa-REP002 without suppressing."""\n'
        assert parse_suppressions(source) == []


class TestEngine:
    def test_infer_context(self):
        assert infer_context("src/repro/core/classifier.py") == "src"
        assert infer_context("tests/test_analysis.py") == "tests"
        assert infer_context("benchmarks/test_performance.py") == "benchmarks"
        assert infer_context("examples/telemetry_demo.py") == "examples"
        assert infer_context("somewhere/else.py") == "src"

    def test_syntax_error_reports_not_raises(self):
        diags = check_source("def broken(:\n", "bad.py")
        assert len(diags) == 1 and diags[0].code == SUPPRESSION_CODE

    def test_fixture_corpus_is_never_walked(self):
        assert "analysis_fixtures" in SKIP_DIRS
        walked = list(iter_python_files([str(REPO_ROOT / "tests")]))
        assert not [p for p in walked if "analysis_fixtures" in p]

    def test_select_subset_of_rules(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        only_rep004 = check_source(
            source, "x.py", context="src", rules=[RULES_BY_CODE["REP004"]]
        )
        assert only_rep004 == []
        only_rep002 = check_source(
            source, "x.py", context="src", rules=[RULES_BY_CODE["REP002"]]
        )
        assert [d.code for d in only_rep002] == ["REP002"]


class TestProjectSelfCheck:
    """The linter's whole point: the real tree holds its own invariants."""

    def test_project_tree_is_clean(self):
        trees = [str(REPO_ROOT / t) for t in ("src", "tests", "benchmarks", "examples")]
        diagnostics = check_paths(trees)
        assert diagnostics == [], "\n" + "\n".join(d.render() for d in diagnostics)

    def test_experiment_runner_is_simtime_only(self):
        """The experiment CLI never reads the wall clock inside a run.

        PR 4's supervisor made retry backoff sim-time; this pins the last
        wall-clock read out of ``repro.experiments`` for good.  The two
        perf_counter reads in ``__main__.py`` wrap the run (operator
        elapsed report) and carry written justifications — anything else
        is a violation.
        """
        diagnostics = check_paths(
            [str(REPO_ROOT / "src" / "repro" / "experiments")], context="src"
        )
        wall_clock = [d for d in diagnostics if d.code == "REP002"]
        assert wall_clock == [], "\n".join(d.render() for d in wall_clock)

    def test_cli_exits_zero_on_project(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis",
             "src", "tests", "benchmarks", "examples"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all invariants hold" in result.stdout

    def test_cli_reports_violations_with_locations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--context", "src", str(bad)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert re.search(r"bad\.py:5:\d+: REP002", result.stdout)


class TestRatchet:
    def test_package_of(self):
        assert package_of("src/repro/channel/model.py") == "repro.channel"
        assert package_of("src/repro/testing.py") == "repro"
        assert package_of("src/repro/util/rng.py") == "repro.util"
        assert package_of("scripts/tool.py") == "<external>"

    def test_parse_mypy_output(self):
        output = (
            "src/repro/channel/model.py:10: error: Incompatible types\n"
            "src/repro/channel/kernels.py:5:12: error: Missing return\n"
            "src/repro/util/rng.py:3: note: See docs\n"
            "Found 2 errors in 2 files (checked 10 source files)\n"
        )
        assert parse_mypy_output(output) == {"repro.channel": 2}

    def test_compare_regression(self):
        regressions, stale, strict = compare({"repro.wlan": 3}, {"repro.wlan": 1})
        assert len(regressions) == 1 and not stale and not strict

    def test_compare_stale_baseline(self):
        regressions, stale, strict = compare({"repro.wlan": 0}, {"repro.wlan": 2})
        assert not regressions and len(stale) == 1 and not strict
        assert "--update" in stale[0]

    def test_compare_strict_violation(self):
        _, _, strict = compare({"repro.core": 1}, {})
        assert len(strict) == 1 and "repro.core" in strict[0]
        _, _, strict = compare({}, {"repro.util": 5})
        assert len(strict) == 1 and "zero baseline" in strict[0]

    def test_compare_clean(self):
        assert compare({"repro.wlan": 1}, {"repro.wlan": 1}) == ([], [], [])

    def test_baseline_file_strict_packages_are_zero(self):
        baseline = load_baseline(str(REPO_ROOT / "mypy_baseline.json"))
        for package in STRICT_PACKAGES:
            assert baseline.get(package, 0) == 0
        with open(REPO_ROOT / "mypy_baseline.json", encoding="utf-8") as fh:
            assert json.load(fh)["strict"] == list(STRICT_PACKAGES)

    def test_ratchet_gate_against_real_tree(self):
        """The CI gate, run locally when mypy is available."""
        try:
            actual, raw = run_mypy([str(REPO_ROOT / "src" / "repro")])
        except RuntimeError as exc:
            pytest.skip(str(exc))
        baseline = load_baseline(str(REPO_ROOT / "mypy_baseline.json"))
        regressions, stale, strict = compare(actual, baseline)
        assert not regressions and not stale and not strict, raw


class TestRuleMetadata:
    def test_catalog_is_complete_and_documented(self):
        assert [rule.code for rule in ALL_RULES] == [
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        ]
        for rule in ALL_RULES:
            assert rule.title and rule.rationale
            assert rule.contexts

    def test_pickle_rule_flags_library_code_only(self):
        rule = [RULES_BY_CODE["REP006"]]
        flagged = "import pickle\n\n\ndef load(f):\n    return pickle.load(f)\n"
        clean = "import json\n\n\ndef load(f):\n    return json.load(f)\n"
        assert [d.code for d in check_source(flagged, "x.py", context="src", rules=rule)] == [
            "REP006"
        ]
        assert check_source(clean, "x.py", context="src", rules=rule) == []
        # Tests build pickle files to check the reader refuses them.
        assert check_source(flagged, "x.py", context="tests", rules=rule) == []

    def test_wall_clock_rule_spares_tests(self):
        assert "tests" not in WallClockRule.contexts
        assert "src" in WallClockRule.contexts

    def test_rules_documented_in_static_analysis_md(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        for rule in ALL_RULES:
            assert rule.code in doc
        assert SUPPRESSION_CODE in doc
