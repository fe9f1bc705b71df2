"""Per-file analysis context handed to every rule.

``FileContext`` owns the parsed AST plus the cheap derived facts the
rules read: which ``repro`` subpackage the file belongs to (derived
from its path), whether it schedules simulator events, and each
node's parent.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from repro.lint.pragmas import Suppressions

#: Call names (last dotted component) that put work on the event queue:
#: the checked ``schedule``/``schedule_at``, the unchecked fast path the
#: packet kernel's hot loops use, and a direct push onto the heap.
SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "schedule_fast",
                              "schedule_fast_at", "heappush"})


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's target, e.g. ``self.sim.schedule``."""
    return dotted_name(node.func)


def last_attr(node: ast.Call) -> str | None:
    """Final component of the call target (``schedule`` for any receiver)."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class FileContext:
    """Everything a rule may want to know about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = Suppressions(source)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._schedules: bool | None = None

        parts = PurePath(path).parts
        #: Path components after the last ``repro`` directory (file name
        #: included), or None when the file is outside the package —
        #: e.g. ``("sim", "engine.py")`` for ``src/repro/sim/engine.py``.
        self.package_parts: tuple[str, ...] | None = None
        if "repro" in parts[:-1]:
            # index of the last "repro" directory component
            last = len(parts) - 2 - parts[:-1][::-1].index("repro")
            self.package_parts = parts[last + 1:]

    # ------------------------------------------------------------------
    # scope helpers
    # ------------------------------------------------------------------
    def in_subpackage(self, *names: str) -> bool:
        """True when the file sits under ``repro/<name>`` for any name."""
        return (self.package_parts is not None and len(self.package_parts) > 1
                and self.package_parts[0] in names)

    # ------------------------------------------------------------------
    # derived facts (lazily computed, cached)
    # ------------------------------------------------------------------
    @property
    def schedules_events(self) -> bool:
        """True when the file calls one of :data:`SCHEDULE_METHODS`."""
        if self._schedules is None:
            self._schedules = any(
                isinstance(node, ast.Call) and last_attr(node)
                in SCHEDULE_METHODS for node in ast.walk(self.tree))
        return self._schedules

    def parent(self, node: ast.AST) -> ast.AST | None:
        """AST parent of ``node`` (None for the module itself)."""
        if self._parents is None:
            self._parents = {
                child: parent for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)}
        return self._parents.get(node)
