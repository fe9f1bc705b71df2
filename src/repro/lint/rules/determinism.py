"""Determinism rule (DET003).

The engine's contract — "every run is fully deterministic" — is what
the golden digests pin.  They catch a global ``random`` draw or a
wall-clock read on any path they exercise, because either changes the
result in every process.  Iterating a set of strings does not: its
order follows the per-process hash seed, so a digest fails only in the
processes whose seed reorders the set.  This rule catches that leak
where it turns into event order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register


@register
class SetIterationRule(Rule):
    """DET003: iterating a set in code that schedules events.

    Set iteration order depends on insertion history and hash seeding of
    the value types; when the loop body schedules events, that order
    becomes event order and the run is no longer reproducible.  Sort the
    elements (or use a dict/list, which preserve insertion order).
    """

    id = "DET003"
    severity = Severity.ERROR
    summary = ("iteration over a set in a file that schedules events; "
               "sort first or keep a dict/list")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.schedules_events

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if self._is_set_expr(it):
                    yield self.finding(
                        ctx, it,
                        "iteration order of a set is not deterministic; "
                        "wrap it in sorted() or keep an ordered container")
