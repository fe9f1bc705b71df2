"""Command-line front end: ``python -m repro.lint [paths...]``.

The per-file rules run over ``paths`` (default ``src tests``);
``--changed`` narrows the run to the files a git diff touches, and
``--report-unused-pragmas`` adds the pragmas that suppressed nothing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
from typing import Sequence

from repro.lint.findings import DEAD_SUPPRESSION_ID, Finding, Severity
from repro.lint.registry import all_rules
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import EXCLUDED_DIRS, lint_paths


def _split_ids(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options (shared with ``python -m repro lint``)."""
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)")
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="fmt", help="report format")
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout")
    parser.add_argument(
        "--select", type=_split_ids, default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--ignore", type=_split_ids, default=None, metavar="IDS",
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint only files changed vs. git REF (default HEAD)")
    parser.add_argument(
        "--report-unused-pragmas", action="store_true",
        help="after the run, report suppression pragmas that no longer "
             "suppress anything (full rule set only)")


def run_from_args(args: argparse.Namespace) -> int:
    return run(args.paths, fmt=args.fmt, select=args.select,
               ignore=args.ignore, list_rules=args.list_rules,
               output=args.output, changed=args.changed,
               report_unused_pragmas=args.report_unused_pragmas)


def _print_rules() -> None:
    for rule in all_rules():
        print(f"{rule.id}  [{rule.severity}]  {rule.summary}")


def _git_changed_files(ref: str) -> list[str] | None:
    """Tracked files differing from ``ref``, or None when git fails."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", "-z", ref],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return [p for p in proc.stdout.split("\0") if p]


def _dead_suppression_findings(registry: dict) -> list[Finding]:
    findings = []
    for path in sorted(registry):
        for line, rule_id in registry[path].unused():
            scope = ("file-scoped pragma" if line == 0
                     else "pragma")
            findings.append(Finding(
                path=path, line=max(line, 1), col=1,
                rule_id=DEAD_SUPPRESSION_ID, severity=Severity.WARNING,
                message=f"{scope} disable={rule_id} suppresses "
                        "nothing; remove it"))
    return findings


def run(paths: Sequence[str], fmt: str = "text",
        select: Sequence[str] | None = None,
        ignore: Sequence[str] | None = None,
        list_rules: bool = False, output: str | None = None,
        changed: str | None = None,
        report_unused_pragmas: bool = False) -> int:
    """Execute a lint run; returns the process exit code."""
    if list_rules:
        _print_rules()
        return 0
    if report_unused_pragmas and (select or ignore):
        print("repro.lint: --report-unused-pragmas needs the full rule "
              "set; drop --select/--ignore")
        return 2
    known = {rule.id for rule in all_rules()}
    for flag, ids in (("--select", select), ("--ignore", ignore)):
        unknown = sorted({i.upper() for i in ids or ()} - known)
        if unknown:
            # a typo'd id would otherwise silently run zero rules
            print(f"repro.lint: unknown rule id(s) for {flag}: "
                  f"{', '.join(unknown)} (see --list-rules)")
            return 2

    lint_targets = list(paths)
    if changed is not None:
        changed_paths = _git_changed_files(changed)
        if changed_paths is None:
            print(f"repro.lint: --changed: git diff against {changed!r} "
                  "failed (not a git checkout?)")
            return 2
        # a diff-scoped run is a scoped tree gate, not an explicit-file
        # request, so it keeps the directory-walk exclusions (fixtures,
        # caches) the full walk applies
        lint_targets = [p for p in changed_paths
                        if p.endswith(".py") and os.path.isfile(p)
                        and _under_any(p, paths)
                        and not _in_excluded_dir(p)]

    suppression_registry: dict = {}
    findings: list[Finding] = []
    files_checked = 0
    if lint_targets:
        try:
            findings, files_checked = lint_paths(
                lint_targets, select=select, ignore=ignore,
                suppression_registry=suppression_registry)
        except FileNotFoundError as exc:
            print(f"repro.lint: no such file or directory: {exc}")
            return 2

    if report_unused_pragmas:
        findings = sorted(
            findings + _dead_suppression_findings(suppression_registry))

    renderer = render_json if fmt == "json" else render_text
    text = renderer(findings, files_checked)
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return 1 if findings else 0


def _under_any(path: str, roots: Sequence[str]) -> bool:
    real = os.path.realpath(path)
    for root in roots:
        rroot = os.path.realpath(root)
        if real == rroot or real.startswith(rroot + os.sep):
            return True
    return False


def _in_excluded_dir(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return any(part in EXCLUDED_DIRS for part in parts[:-1])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static analysis for set order in scheduling code "
                    "and blocking calls in gateway coroutines")
    add_arguments(parser)
    args = parser.parse_args(argv)
    return run_from_args(args)
