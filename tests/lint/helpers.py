"""Shared helpers for the lint-framework tests.

Fixture modules live under ``tests/lint/fixtures/repro/<package>/`` —
inside a ``repro`` directory so path-scoped rules apply, inside
``fixtures`` so the tree-wide lint walk skips them.  Lines tagged ``# violation`` are
the exact set a rule must flag; pragma'd twins must stay silent.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, lint_source

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture_path(name: str, package: str = "sim") -> Path:
    """Path of a fixture module; ``package`` picks the ``repro/``
    subpackage it pretends to live in (path-scoped rules care)."""
    return FIXTURES / "repro" / package / name


def lint_fixture(name: str, rule_id: str, package: str = "sim"):
    """Findings of one rule on one fixture file."""
    findings, files = lint_paths([str(fixture_path(name, package))],
                                 select=[rule_id])
    assert files == 1
    return findings


def expected_lines(name: str, package: str = "sim") -> list[int]:
    """Line numbers tagged ``# violation`` in a fixture."""
    text = fixture_path(name, package).read_text(encoding="utf-8")
    return [i for i, line in enumerate(text.splitlines(), start=1)
            if "# violation" in line]


def assert_rule_matches_fixture(rule_id: str, name: str,
                                package: str = "sim") -> None:
    """The rule flags exactly the tagged lines (suppressed twins silent)."""
    findings = lint_fixture(name, rule_id, package)
    assert [f.rule_id for f in findings] == [rule_id] * len(findings)
    assert [f.line for f in findings] == expected_lines(name, package)


def lint_snippet(source: str, path: str = "src/repro/sim/snippet.py"):
    """Lint a source string at a virtual path (for inline tests)."""
    return lint_source(source, path)
