"""What a fingerprint reads: every import statement, and the entry's
whole defining file."""

import ast
import textwrap

from repro.exec import SourceIndex, TaskSpec, task_fingerprint
from repro.exec.registry import ScenarioEntry


def _reference_imports(index: SourceIndex, modname: str) -> tuple[str, ...]:
    """``imports_of`` computed the exhaustive way: every node of the
    syntax tree, expressions included."""
    path = index.module_path(modname)
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if index.module_path(alias.name) is not None)
        elif isinstance(node, ast.ImportFrom):
            base = index._from_base(modname, node.level, node.module)
            if base is None:
                continue
            if index.module_path(base) is not None:
                found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names
                         if index.module_path(f"{base}.{alias.name}")
                         is not None)
    found.discard(modname)
    return tuple(sorted(found))


def test_statement_walk_equals_a_full_tree_walk_on_every_module():
    index = SourceIndex()
    modules = index.all_modules()
    assert len(modules) > 90
    for modname in modules:
        assert index.imports_of(modname) == _reference_imports(
            index, modname), modname


def test_statement_walk_reaches_every_kind_of_block(tmp_path):
    root = tmp_path / "repro"
    root.mkdir()
    names = [f"m{i}" for i in range(16)]
    for name in ("__init__", *names):
        (root / f"{name}.py").write_text("")
    (root / "nested.py").write_text(textwrap.dedent("""\
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            import repro.m0
        else:
            import repro.m1
        try:
            import repro.m2
        except ImportError:
            import repro.m3
        else:
            import repro.m4
        finally:
            import repro.m5
        with open(__file__):
            import repro.m6
        for _ in ():
            import repro.m7
        else:
            import repro.m8
        while False:
            import repro.m9
        def f():
            import repro.m10
        async def g():
            async with x:
                from repro import m11
        class C:
            def method(self):
                from . import m12
        match 0:
            case 1:
                from .m13 import thing
            case _:
                import repro.m14
        lambda: __import__("repro.m15")
        """))
    index = SourceIndex(root=root)
    expected = {f"repro.{name}" for name in names[:15]} | {"repro"}
    assert set(index.imports_of("repro.nested")) == expected
    assert index.imports_of("repro.nested") == _reference_imports(
        index, "repro.nested")


# ----------------------------------------------------------------------
# the entry's defining file, helpers included
# ----------------------------------------------------------------------
ENTRY_MODULE = '''\
"""Scenario entries sharing a module-level helper."""


def helper_entry(duration: float = 0.1):
    return _params(duration)


def _params(duration):
    return {"duration": duration, "icr": 7.5}
'''


def _load_entry(path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("helper_entries", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return ScenarioEntry(name="test.helper", fn=module.helper_entry,
                         kind="atm", deps=("repro.sim.engine",))


def test_editing_an_entry_helper_changes_the_fingerprint(tmp_path):
    path = tmp_path / "helper_entries.py"
    path.write_text(ENTRY_MODULE)
    spec = TaskSpec(task_id="h", scenario="test.helper")
    before = task_fingerprint(spec, entry=_load_entry(path),
                              index=SourceIndex())
    # the helper changes what the entry builds; the entry's own source
    # does not change by a byte
    path.write_text(ENTRY_MODULE.replace('"icr": 7.5', '"icr": 1.0'))
    after = task_fingerprint(spec, entry=_load_entry(path),
                             index=SourceIndex())
    assert after != before
