"""One seed pins one batch forever: the fuzz modules reach no global
randomness, clock or OS entropy.  Only ``from random import Random`` —
the injected handle's type — is allowed; ``cli`` times campaigns and is
exempt."""

import ast
from pathlib import Path

import repro.fuzz

BANNED = {"random", "time", "datetime", "uuid", "secrets"}


def test_core_fuzz_modules_import_no_global_state():
    package = Path(repro.fuzz.__file__).parent
    modules = [p for p in sorted(package.glob("*.py")) if p.stem != "cli"]
    assert len(modules) >= 6
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
                if node.module == "random":
                    names = [f"random.{a.name}" for a in node.names
                             if a.name != "Random"]
            else:
                continue
            bad = [n for n in names if n.split(".")[0] in BANNED]
            assert not bad, f"{path.name}:{node.lineno} imports {bad}"
