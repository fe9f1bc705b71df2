"""File collection and rule execution."""

from __future__ import annotations

import ast
import os
from typing import Iterable, Iterator, Sequence

from repro.lint.context import FileContext
from repro.lint.findings import Finding, PARSE_ERROR_ID, Severity
from repro.lint.registry import Rule, all_rules

#: Directory names skipped while walking.  ``fixtures`` is skipped so the
#: deliberately-broken lint fixtures under ``tests/lint/fixtures`` don't
#: fail the tree-wide run; explicitly named files are always linted.
EXCLUDED_DIRS = frozenset({
    "__pycache__", ".git", ".venv", "venv", "build", "dist",
    ".mypy_cache", ".pytest_cache", "fixtures",
})


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield .py files: explicit files as-is, directories recursively.

    Each file is yielded at most once however many of the argument
    paths cover it (``repro lint src src/repro/cli.py`` must not lint
    ``cli.py`` twice — duplicate findings and an inflated
    ``files_checked`` both lie).  Identity is the resolved real path,
    so overlapping directories and symlinked aliases dedupe too; the
    *first* spelling of a path wins, keeping reported paths stable.
    """
    seen: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            real = os.path.realpath(path)
            if real not in seen:
                seen.add(real)
                yield path
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in EXCLUDED_DIRS)
                for name in sorted(files):
                    if not name.endswith(".py"):
                        continue
                    full = os.path.join(root, name)
                    real = os.path.realpath(full)
                    if real not in seen:
                        seen.add(real)
                        yield full
        else:
            raise FileNotFoundError(path)


def lint_source(source: str, path: str,
                rules: Iterable[Rule] | None = None,
                suppression_registry: dict | None = None) -> list[Finding]:
    """Lint one source string as if it lived at ``path``.

    ``path`` drives rule scoping (e.g. determinism rules only apply
    under a ``repro`` package directory), which is also what lets tests
    lint snippets against a virtual location.  When a
    ``suppression_registry`` dict is passed, the file's
    :class:`~repro.lint.pragmas.Suppressions` object (with its usage
    marks) is stored under ``path`` so callers can detect dead pragmas.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1, rule_id=PARSE_ERROR_ID,
                        severity=Severity.ERROR,
                        message=f"file does not parse: {exc.msg}")]
    ctx = FileContext(path, source, tree)
    if suppression_registry is not None:
        suppression_registry[path] = ctx.suppressions
    findings: list[Finding] = []
    for rule in (all_rules() if rules is None else rules):
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressions.is_suppressed(finding.rule_id,
                                                  finding.line):
                findings.append(finding)
    return sorted(set(findings))


def lint_paths(paths: Sequence[str],
               select: Iterable[str] | None = None,
               ignore: Iterable[str] | None = None,
               suppression_registry: dict | None = None
               ) -> tuple[list[Finding], int]:
    """Lint files/directories; returns (findings, files_checked).

    ``select`` restricts the run to the given rule ids; ``ignore`` drops
    the given ids (applied after ``select``).
    """
    rules: list[Rule] = all_rules()
    if select is not None:
        wanted = {s.upper() for s in select}
        rules = [r for r in rules if r.id in wanted]
    if ignore is not None:
        dropped = {s.upper() for s in ignore}
        rules = [r for r in rules if r.id not in dropped]

    findings: list[Finding] = []
    files_checked = 0
    for file_path in iter_python_files(paths):
        files_checked += 1
        with open(file_path, encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(lint_source(
            source, file_path, rules=rules,
            suppression_registry=suppression_registry))
    return sorted(findings), files_checked
