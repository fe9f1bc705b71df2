"""Tier-1 gate: the tree must stay lint-clean.

``repro.lint`` checks the two invariants no runtime check or plain test
catches reliably (docs/LINTING.md); this test makes every violation a
test failure, so refactors cannot silently reintroduce them.
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_src_and_tests_are_lint_clean():
    findings, files_checked = lint_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    assert files_checked > 100, "lint walk found suspiciously few files"
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"lint findings in tree:\n{rendered}"


def test_fixture_directory_is_excluded_from_the_walk():
    # the deliberately-broken fixtures live under tests/lint/fixtures;
    # the tree walk must skip them (explicit paths still lint them)
    findings, _ = lint_paths([str(REPO_ROOT / "tests" / "lint")])
    assert findings == []


def test_no_dead_suppression_pragmas_in_tree():
    # run the full rule set, then every pragma in the tree must have
    # fired at least once
    registry: dict = {}
    lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")],
               suppression_registry=registry)
    dead = {path: supp.unused() for path, supp in registry.items()
            if supp.unused()}
    assert not dead, f"dead suppression pragmas: {dead}"
