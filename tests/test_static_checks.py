"""Two static checks over every ``.py`` file under ``src/`` and ``tests/``.

Each guards an invariant that no runtime check and no test comparing
outputs catches reliably (docs/LINTING.md lists what covers the rest):

* :func:`set_iterations` — a set iterated in a file that schedules
  events.  The iteration order of a set of strings follows the
  per-process hash seed; when the loop schedules, that order becomes
  event order, and a golden digest fails only in the processes whose
  seed reorders the set.
* :func:`blocking_calls` — a blocking call in a ``repro.serve``
  coroutine.  The gateway runs every connection on one event loop, so
  one blocking call stalls all clients and the admission clock, while
  every output stays the same.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SERVE = REPO_ROOT / "src" / "repro" / "serve"

#: Call names (last dotted component) that put work on the event queue:
#: the checked ``schedule``/``schedule_at``, the unchecked fast path the
#: packet kernel's hot loops use, and a direct push onto the heap.
SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "schedule_fast",
                              "schedule_fast_at", "heappush"})

#: Exact dotted call names that block the calling thread.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})

#: Call targets (last component) that run simulations synchronously;
#: coroutines must go through the executor bridge instead.
EXECUTOR_ONLY_CALLS = frozenset({"run_tasks", "execute_spec",
                                 "execute_task"})


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _last_attr(call: ast.Call) -> str | None:
    """Final component of the call target (``schedule`` for any receiver)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def set_iterations(tree: ast.Module) -> list[int]:
    """Lines that iterate a set literal or a ``set(...)``/
    ``frozenset(...)`` call, in a module that calls any of
    :data:`SCHEDULE_METHODS` (else none)."""
    if not any(isinstance(node, ast.Call)
               and _last_attr(node) in SCHEDULE_METHODS
               for node in ast.walk(tree)):
        return []
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        else:
            continue
        lines.extend(it.lineno for it in iters if _is_set_expr(it))
    return sorted(lines)


def blocking_calls(tree: ast.Module) -> list[int]:
    """Lines of a blocking call (:data:`BLOCKING_CALLS`) or a direct
    executor entry point (:data:`EXECUTOR_ONLY_CALLS`) whose nearest
    enclosing function is an ``async def``.

    A sync function nested in a coroutine is its own scope: it may be
    the very function shipped to ``loop.run_in_executor``.  A callable
    passed by reference is not a call, so the bridge is not flagged.
    """
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and (_dotted_name(node.func) in BLOCKING_CALLS
                     or _last_attr(node) in EXECUTOR_ONLY_CALLS)):
            continue
        scope = parents.get(node)
        while scope is not None and not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = parents.get(scope)
        if isinstance(scope, ast.AsyncFunctionDef):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.fixture(scope="module")
def trees() -> dict[Path, ast.Module]:
    """Every ``.py`` file under ``src/`` and ``tests/``, parsed once."""
    paths = sorted(path for top in ("src", "tests")
                   for path in (REPO_ROOT / top).rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"),
                            filename=str(path)) for path in paths}


def test_no_set_iteration_where_events_are_scheduled(trees):
    assert len(trees) > 100, "the walk found suspiciously few files"
    found = [f"{path.relative_to(REPO_ROOT)}:{line}"
             for path, tree in trees.items()
             for line in set_iterations(tree)]
    assert not found, (
        "set iterated in a file that schedules events; iterate "
        "sorted(...) or keep a dict/list:\n" + "\n".join(found))


def test_no_blocking_call_in_a_serve_coroutine(trees):
    serve = {path: tree for path, tree in trees.items()
             if SERVE in path.parents}
    assert serve, f"no module found under {SERVE.relative_to(REPO_ROOT)}"
    found = [f"{path.relative_to(REPO_ROOT)}:{line}"
             for path, tree in serve.items()
             for line in blocking_calls(tree)]
    assert not found, (
        "blocking call in a repro.serve coroutine; await "
        "asyncio.sleep(...) or pass the callable to "
        "loop.run_in_executor(...):\n" + "\n".join(found))


# ----------------------------------------------------------------------
# each check on a snippet; lines tagged ``# violation`` are the ones it
# reports
# ----------------------------------------------------------------------
SET_LOOPS = '''\
"""Set iteration in a file that schedules events."""


def broadcast(sim, sessions):
    for vc in set(sessions):  # violation
        sim.schedule(0.001, vc.notify)
    delays = [d for d in {0.1, 0.2}]  # violation
    return delays


def broadcast_ok(sim, sessions):
    for vc in sorted(set(sessions)):
        sim.schedule(0.001, vc.notify)
'''

FAST_PATH_SET_LOOP = '''\
"""Set iteration in a file that schedules only through the
simulator's fast path."""


def fan_out(sim, ports):
    for port in set(ports):  # violation
        sim.schedule_fast_at(sim.now + 0.001, port.drain)


def fan_out_ok(sim, ports):
    for port in sorted(set(ports)):
        sim.schedule_fast_at(sim.now + 0.001, port.drain)
'''

HEAPPUSH_SET_LOOP = '''\
from heapq import heappush


def fan_out(heap, seq, ports):
    for port in set(ports):  # violation
        heappush(heap, (0.001, next(seq), None, port.drain, ()))
'''

SERVE_COROUTINES = '''\
"""Blocking calls inside coroutines in repro.serve.

Flagged lines are tagged; the sync twins and the executor-bridge
pattern must stay silent.
"""

import asyncio
import subprocess
import time

from repro.exec.pool import run_tasks


def sync_helper(specs):
    # sync scope: blocking is this function's business
    time.sleep(0.01)
    subprocess.run(["true"], check=False)
    return run_tasks(specs, jobs=1)


async def bad_sleep():
    time.sleep(0.5)  # violation
    await asyncio.sleep(0)


async def bad_subprocess():
    subprocess.run(["true"], check=False)  # violation
    subprocess.check_output(["true"])  # violation


async def bad_direct_run(specs):
    return run_tasks(specs, jobs=1)  # violation


async def good_bridge(specs):
    loop = asyncio.get_running_loop()
    # passed by reference: the executor thread does the blocking
    return await loop.run_in_executor(None, sync_helper, specs)


async def good_async_sleep():
    await asyncio.sleep(0.5)


async def outer(specs):
    def shipped_to_executor():
        # nested *sync* function: its body is not coroutine code
        return run_tasks(specs, jobs=1)

    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, shipped_to_executor)
'''


def test_set_iterations_in_loops_and_comprehensions():
    assert set_iterations(ast.parse(SET_LOOPS)) == [5, 7]


def test_set_iterations_in_a_file_that_schedules_through_the_fast_path():
    assert set_iterations(ast.parse(FAST_PATH_SET_LOOP)) == [6]


def test_set_iterations_in_a_file_that_schedules_only_through_heappush():
    assert set_iterations(ast.parse(HEAPPUSH_SET_LOOP)) == [5]


def test_set_iterations_ignore_files_that_do_not_schedule():
    source = "def f(xs):\n    return [x for x in set(xs)]\n"
    assert set_iterations(ast.parse(source)) == []


def test_blocking_calls_in_coroutines_but_not_in_nested_sync_defs():
    assert blocking_calls(ast.parse(SERVE_COROUTINES)) == [22, 27, 28, 32]


def test_blocking_calls_ignore_references_and_sync_scopes():
    source = (
        "import asyncio, time\n"
        "from repro.exec.pool import run_tasks\n"
        "def sync(specs):\n"
        "    time.sleep(0.1)\n"
        "    return run_tasks(specs)\n"
        "async def f(specs):\n"
        "    loop = asyncio.get_running_loop()\n"
        "    return await loop.run_in_executor(None, run_tasks, specs)\n")
    assert blocking_calls(ast.parse(source)) == []
