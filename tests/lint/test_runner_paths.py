"""File collection: overlap dedupe (the double-lint regression)."""

import os

from repro.lint.runner import iter_python_files, lint_paths


def _tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "def f(sim, xs):\n"
        "    for x in set(xs):\n"
        "        sim.schedule(0.001, x)\n")
    (pkg / "b.py").write_text("x = 1\n")
    return tmp_path


def test_overlapping_dir_and_file_are_linted_once(tmp_path):
    root = _tree(tmp_path)
    src = str(root / "src")
    a = str(root / "src" / "repro" / "sim" / "a.py")
    files = list(iter_python_files([src, a]))
    assert len(files) == len(set(map(os.path.realpath, files)))
    assert sorted(map(os.path.basename, files)) == ["a.py", "b.py"]


def test_nested_dirs_and_duplicate_args_dedupe(tmp_path):
    root = _tree(tmp_path)
    src = str(root / "src")
    sim = str(root / "src" / "repro" / "sim")
    files = list(iter_python_files([src, sim, src]))
    assert sorted(map(os.path.basename, files)) == ["a.py", "b.py"]


def test_first_spelling_wins_for_reported_paths(tmp_path):
    root = _tree(tmp_path)
    a = str(root / "src" / "repro" / "sim" / "a.py")
    files = list(iter_python_files([a, str(root / "src")]))
    assert files[0] == a    # explicit spelling kept, walk skips it


def test_findings_are_not_duplicated_for_overlapping_paths(tmp_path):
    root = _tree(tmp_path)
    a = str(root / "src" / "repro" / "sim" / "a.py")
    findings_once, checked_once = lint_paths([a], select=["DET003"])
    findings_twice, checked_twice = lint_paths(
        [str(root / "src"), a], select=["DET003"])
    assert len(findings_once) == 1
    assert len(findings_twice) == 1
    assert checked_twice == 2   # a.py counted once, plus b.py


def test_symlinked_alias_is_linted_once(tmp_path):
    root = _tree(tmp_path)
    alias = root / "alias"
    try:
        os.symlink(root / "src", alias)
    except OSError:
        return                   # filesystem without symlink support
    files = list(iter_python_files([str(root / "src"), str(alias)]))
    assert sorted(map(os.path.basename, files)) == ["a.py", "b.py"]
