"""The lint CLI surface: `repro lint`, --changed, dead-pragma reports."""

import subprocess
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
    assert "DET003" in out and "SRV001" in out


def test_unknown_rule_id_is_a_usage_error(capsys):
    assert main(["lint", "--select", "NOPE01", SRC]) == 2
    assert "unknown rule id" in capsys.readouterr().out


def test_report_unused_pragmas_rejects_partial_runs(capsys):
    assert main(["lint", "--report-unused-pragmas",
                 "--select", "DET003", SRC]) == 2
    assert "full rule set" in capsys.readouterr().out


def test_report_unused_pragmas_flags_a_dead_pragma(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("x = 1  # lint: disable=DET003\n")
    assert main(["lint", "--report-unused-pragmas",
                 str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "LNT001" in out and "det003" in out


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=lint-test",
                    "-c", "user.email=lint-test@example.invalid",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_changed_against_head_is_clean(tmp_path, capsys, monkeypatch):
    """What HEAD holds counts as clean: ``--changed HEAD`` lints only
    the files the worktree changed, so a violation committed in ``b.py``
    is not reported and one added to ``a.py`` is.  The test builds its
    own repository, so it runs outside a git checkout too."""
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    clean = "def send(sim, xs):\n    return xs\n"
    violation = ("def fan(sim, xs):\n"
                 "    for x in set(xs):\n"
                 "        sim.schedule(0.001, x)\n")
    (pkg / "a.py").write_text(clean)
    (pkg / "b.py").write_text(violation)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    (pkg / "a.py").write_text(clean + violation)

    assert main(["lint", "--changed", "HEAD", "repro"]) == 1
    out = capsys.readouterr().out
    assert "a.py:4" in out
    assert "b.py" not in out


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
