"""``repro.lint`` — domain-specific static analysis for this repository.

Two rules check what no runtime check or test reliably catches:

* **DET003** — no iteration over an unordered set in code that
  schedules simulator events (string hashing, and so set order, varies
  per process, so a golden digest fails only sometimes);
* **SRV001** — no blocking call inside a coroutine of the
  :mod:`repro.serve` gateway (it stalls every client but changes no
  output any test compares).

docs/LINTING.md lists the rules that were removed and the test or
runtime check that covers each.

Run it as ``python -m repro.lint src tests`` (or ``python -m repro lint``).
Findings can be suppressed per line with ``# lint: disable=<ID>`` or per
file with ``# lint: disable-file=<ID>``; see ``docs/LINTING.md``.
"""

from __future__ import annotations

from repro.lint.cli import main
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, get_rule, register
from repro.lint.runner import lint_paths, lint_source

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "lint_paths",
    "lint_source",
    "main",
]
