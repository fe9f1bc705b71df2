"""The fluid core steps rate vectors, never cells: no core fluid module
imports the event kernel or a packet stack.  ``repro.atm.params``
(shared parameter records) and the scalar ``repro.sim`` submodules
(``probe``, ``rng``, ``units``) are allowed.  ``hybrid`` couples the
two tiers and ``cli``/``validate`` drive packet runs for comparison,
so they are exempt.

This pins direct imports only.  Importing ``repro.atm.params`` runs
``repro/atm/__init__.py``, which loads the packet stack at run time."""

import ast
from pathlib import Path

import repro.fluid

#: ``repro.sim`` itself re-exports the engine; its scalar submodules
#: are imported directly.
BANNED_EXACT = {"repro.sim"}
BANNED_PREFIXES = ("repro.sim.engine", "repro.sim.timers", "repro.atm",
                   "repro.tcp")
ALLOWED = {"repro.atm.params"}
EXEMPT = {"hybrid", "cli", "validate"}


def _banned(module):
    if module in ALLOWED:
        return False
    return module in BANNED_EXACT or any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in BANNED_PREFIXES)


def test_core_fluid_modules_import_no_kernel_or_packet_stack():
    package = Path(repro.fluid.__file__).parent
    modules = [p for p in sorted(package.glob("*.py"))
               if p.stem not in EXEMPT]
    assert len(modules) >= 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            bad = [n for n in names if _banned(n)]
            assert not bad, f"{path.name}:{node.lineno} imports {bad}"


def test_the_ban_covers_kernel_and_packet_modules_but_not_params():
    assert _banned("repro.sim")
    assert _banned("repro.sim.engine")
    assert _banned("repro.sim.timers")
    assert _banned("repro.atm")
    assert _banned("repro.atm.port")
    assert _banned("repro.tcp.reno")
    assert not _banned("repro.atm.params")
    assert not _banned("repro.sim.units")
    assert not _banned("repro.sim.probe")
    assert not _banned("repro.core.macr")
