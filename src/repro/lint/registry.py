"""Rule base class and registry.

A rule subclasses :class:`Rule`, sets the class attributes, implements
:meth:`Rule.check`, and registers itself with the :func:`register`
decorator.  The runner instantiates each registered rule once per
process; rules must therefore be stateless across files.
"""

from __future__ import annotations

import ast
from typing import Iterator, Type

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity


class Rule:
    """One static-analysis check with a stable id."""

    #: Stable identifier, e.g. ``DET003`` (category prefix + number).
    id: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line human summary shown by ``--list-rules``.
    summary: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether the rule should run on this file at all."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    return _REGISTRY[rule_id]()


def _load_builtin_rules() -> None:
    # Imported lazily so registry.py itself has no import cycle with the
    # rule modules (they import Rule/register from here).
    from repro.lint import rules  # noqa: F401
