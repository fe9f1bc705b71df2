"""The lint CLI surface: `repro lint`, --changed, dead-pragma reports."""

from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")


@pytest.fixture(autouse=True)
def _run_in_repo_root(monkeypatch):
    """--changed paths come from git relative to the repo root, which is
    where the lint gate runs."""
    monkeypatch.chdir(REPO_ROOT)


def test_list_rules_through_repro_lint(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET001" in out and "SRV001" in out


def test_unknown_rule_id_is_a_usage_error(capsys):
    assert main(["lint", "--select", "NOPE01", SRC]) == 2
    assert "unknown rule id" in capsys.readouterr().out


def test_report_unused_pragmas_rejects_partial_runs(capsys):
    assert main(["lint", "--report-unused-pragmas",
                 "--select", "DET001", SRC]) == 2
    assert "full rule set" in capsys.readouterr().out


def test_report_unused_pragmas_flags_a_dead_pragma(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("x = 1  # lint: disable=DET001\n")
    assert main(["lint", "--report-unused-pragmas",
                 str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "LNT001" in out and "det001" in out


def test_changed_against_head_is_clean(capsys):
    # the worktree may legitimately differ from HEAD mid-development;
    # the gate here is only that the scoped run works end to end
    code = main(["lint", "--changed", "HEAD", SRC])
    assert code in (0, 1)
    out = capsys.readouterr().out
    assert "clean" in out or "finding" in out


def test_changed_keeps_the_walk_exclusions(capsys):
    # --changed generates the file list itself, so it must honor the
    # same exclusions as the tree walk: a PR touching the deliberately
    # broken lint fixtures must not fail the diff-scoped gate on them
    from repro.lint.cli import _in_excluded_dir

    assert _in_excluded_dir("tests/lint/fixtures/repro/sim/bad.py")
    assert not _in_excluded_dir("src/repro/sim/engine.py")
    assert not _in_excluded_dir("tests/lint/test_cli_lint.py")


def test_changed_against_bad_ref_is_a_usage_error(capsys):
    assert main(["lint", "--changed", "no-such-ref-xyz", SRC]) == 2
    assert "--changed" in capsys.readouterr().out
