"""Sim-API rules (FLT*, SIM*).

These rules guard the sharp edges of the simulation kernel's API:
float timestamps/rates compared with ``==``, and ``schedule()`` handles
dropped on the floor by classes that elsewhere rely on being able to
``cancel()`` their events.  ``Simulator.run()`` from inside an event
callback needs no rule: it raises ``SimulationError`` at run time
(``tests/sim/test_engine.py``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, SCHEDULE_METHODS, last_attr
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register


def _is_float_annotation(node: ast.AST | None) -> bool:
    """True for ``float`` and unions containing it (``float | None``)."""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "float" in node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_is_float_annotation(node.left)
                or _is_float_annotation(node.right))
    return False


def _float_locals(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names annotated ``float`` in a function's signature or body."""
    names: set[str] = set()
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if _is_float_annotation(arg.annotation):
            names.add(arg.arg)
    for node in ast.walk(func):
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and _is_float_annotation(node.annotation)):
            names.add(node.target.id)
    return names


def _float_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes annotated ``float`` at class level or as ``self.x``."""
    names: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.AnnAssign):
            continue
        if (isinstance(node.target, ast.Name)
                and _is_float_annotation(node.annotation)):
            names.add(node.target.id)
        elif (isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
                and _is_float_annotation(node.annotation)):
            names.add(node.target.attr)
    return names


@register
class FloatEqualityRule(Rule):
    """FLT001: ``==``/``!=`` on values that are statically floats.

    Rates, times, and MACR estimates accumulate rounding; exact equality
    silently flips as the arithmetic is refactored.  Use
    ``math.isclose`` or an explicit epsilon — or, when an *exact*
    compare is the intent (change-suppression, never-written sentinel
    defaults), suppress with a justification.
    """

    id = "FLT001"
    severity = Severity.ERROR
    summary = ("float ==/!= comparison; use math.isclose or an epsilon "
               "(or suppress with justification for exact sentinels)")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_repro

    @staticmethod
    def _floatish(node: ast.AST, local_floats: set[str],
                  class_floats: set[str]) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            return True
        if isinstance(node, ast.Name):
            return node.id in local_floats
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr in class_floats
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        func_locals: dict[ast.AST, set[str]] = {}
        class_attrs: dict[ast.AST, set[str]] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            # resolve enclosing function and class scopes (cached)
            local_floats: set[str] = set()
            class_floats: set[str] = set()
            scope = ctx.parent(node)
            while scope is not None:
                if (isinstance(scope, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                        and not local_floats):
                    if scope not in func_locals:
                        func_locals[scope] = _float_locals(scope)
                    local_floats = func_locals[scope]
                elif isinstance(scope, ast.ClassDef) and not class_floats:
                    if scope not in class_attrs:
                        class_attrs[scope] = _float_attrs(scope)
                    class_floats = class_attrs[scope]
                scope = ctx.parent(scope)
            operands = [node.left] + list(node.comparators)
            if any(self._floatish(op, local_floats, class_floats)
                   for op in operands):
                yield self.finding(
                    ctx, node,
                    "float equality is brittle under refactoring; use "
                    "math.isclose()/an epsilon, or suppress with a "
                    "justification if the exact compare is intended")


@register
class DiscardedScheduleRule(Rule):
    """SIM002: schedule() handle discarded by a class that cancels events.

    A class that calls ``Event.cancel()`` manages event lifetimes; a
    bare ``self.sim.schedule(...)`` statement in such a class creates an
    event nothing can ever cancel — usually an overlooked leak in a
    pause/teardown path.  Keep the handle, or suppress with a note that
    the event is fire-and-forget by design.
    """

    id = "SIM002"
    severity = Severity.WARNING
    summary = ("schedule() result discarded in a class that cancels "
               "events; keep the Event handle")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.schedules_events

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            cancels = any(
                isinstance(node, ast.Call) and last_attr(node) == "cancel"
                for node in ast.walk(cls))
            if not cancels:
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)
                        and last_attr(node.value) in SCHEDULE_METHODS):
                    yield self.finding(
                        ctx, node,
                        "this class cancels events elsewhere but discards "
                        "this schedule() handle; assign it (or suppress "
                        "with a fire-and-forget justification)")
