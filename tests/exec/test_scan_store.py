"""The import-scan store: fingerprints read from it equal fingerprints
parsed from source, and a process that finds its scans stored parses
nothing."""

import ast
import json
import sys
import threading

import pytest

from repro.exec import (ResultCache, SourceIndex, TaskSpec, run_tasks,
                        task_fingerprint)
from repro.exec.entries import ATM_ALGORITHMS, TCP_POLICIES
from repro.exec.fingerprint import SCAN_STORE, SCAN_VERSION, task_roots
from repro.exec.registry import all_scenarios
from repro.exec.suite import suite_specs

FUZZ_CONFIG = {"switches": ["S1", "S2"], "trunks": [{"a": "S1", "b": "S2"}],
               "sessions": [{"vc": "s0", "route": ["S1", "S2"]}],
               "duration": 0.1}


def choice_specs() -> list[TaskSpec]:
    """One spec per registered entry and algorithm or policy it can
    choose (84 in all)."""
    out = []
    for name, entry in sorted(all_scenarios().items()):
        if name == "fuzz.generic":
            out += [TaskSpec(task_id=f"{name}-{a}", scenario=name,
                             config={**FUZZ_CONFIG, "algorithm": a})
                    for a in ATM_ALGORITHMS]
        elif entry.kind == "atm":
            out += [TaskSpec(task_id=f"{name}-{a}", scenario=name,
                             params={"algorithm": a})
                    for a in ATM_ALGORITHMS]
        elif entry.kind == "tcp":
            out += [TaskSpec(task_id=f"{name}-{p}", scenario=name,
                             params={"policy": p})
                    for p in TCP_POLICIES]
        else:
            out.append(TaskSpec(task_id=name, scenario=name))
    return out


ALL_SPECS = suite_specs(1.0, 0) + choice_specs()


def fingerprints(index: SourceIndex, specs=ALL_SPECS) -> list[str]:
    return [task_fingerprint(spec, index=index) for spec in specs]


@pytest.fixture
def parses(monkeypatch):
    """Counts ``ast.parse`` calls."""
    calls = []
    real = ast.parse

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("filename"))
        return real(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    return calls


@pytest.fixture(scope="module")
def reference() -> list[str]:
    return fingerprints(SourceIndex())


def filled_index(directory, specs=ALL_SPECS) -> SourceIndex:
    index = SourceIndex()
    index.bind_store(directory)
    fingerprints(index, specs)
    index.save_store()
    return index


# ----------------------------------------------------------------------
# the store changes no fingerprint
# ----------------------------------------------------------------------
def test_stored_scans_give_the_parsed_fingerprints(tmp_path, reference):
    assert len(ALL_SPECS) == 41 + 84
    index = SourceIndex()
    index.bind_store(tmp_path)
    assert fingerprints(index) == reference
    index.save_store()
    assert (tmp_path / SCAN_STORE).is_file()
    again = SourceIndex()
    again.bind_store(tmp_path)
    assert fingerprints(again) == reference


def test_a_filled_store_spares_every_parse(tmp_path, parses):
    filled_index(tmp_path)
    store = tmp_path / SCAN_STORE
    before = store.read_bytes(), store.stat().st_mtime_ns
    parses.clear()
    index = SourceIndex()
    index.bind_store(tmp_path)
    fingerprints(index)
    index.save_store()
    assert parses == []
    # nothing was scanned, so nothing is written
    assert (store.read_bytes(), store.stat().st_mtime_ns) == before


def test_run_tasks_keeps_the_store_beside_the_results(tmp_path, parses):
    spec = TaskSpec(task_id="a", scenario="atm.staggered",
                    params={"n_sessions": 2, "duration": 0.02})
    cache = ResultCache(tmp_path)
    (cold,) = run_tasks([spec], jobs=1, cache=cache, index=SourceIndex())
    store = tmp_path / SCAN_STORE
    assert store.is_file()
    stored = store.read_bytes()
    parses.clear()
    (warm,) = run_tasks([spec], jobs=1, cache=cache, index=SourceIndex())
    assert warm.cached and warm.fingerprint == cold.fingerprint
    assert parses == []
    assert store.read_bytes() == stored


# ----------------------------------------------------------------------
# outside input: a damaged store is an empty one
# ----------------------------------------------------------------------
def _header(**fields) -> dict:
    return {"scan_version": SCAN_VERSION,
            "python": f"{sys.version_info.major}.{sys.version_info.minor}",
            "modules": {}, **fields}


#: A real digest, so a malformed row that slipped through would be used.
ENGINE_DIGEST = SourceIndex().digest("repro.sim.engine")


def _with_row(row) -> dict:
    return _header(modules={"repro.sim.engine": {"digest": ENGINE_DIGEST,
                                                 "imports": [row]}})


DAMAGED = {
    "binary": b"\x00\xff\x13garbage",
    "empty": b"",
    "not an object": b"[1, 2, 3]",
    "other scan version": json.dumps(
        _header(scan_version=SCAN_VERSION + 1)).encode(),
    "other python": json.dumps(_header(python="2.7")).encode(),
    "no header": json.dumps({"modules": {}}).encode(),
    "modules a list": json.dumps(_header(modules=[])).encode(),
    "entry a list": json.dumps(
        _header(modules={"repro.sim.engine": [ENGINE_DIGEST, []]})).encode(),
    "digest a number": json.dumps(
        _header(modules={"repro.sim.engine": {"digest": 7,
                                              "imports": []}})).encode(),
    "short row": json.dumps(_with_row(["import", 0, None])).encode(),
    "unknown kind": json.dumps(_with_row(["exec", 0, None, []])).encode(),
    "level a string": json.dumps(_with_row(["from", "1", "x", []])).encode(),
    "level a bool": json.dumps(_with_row(["from", True, "x", []])).encode(),
    "negative level": json.dumps(_with_row(["from", -1, "x", []])).encode(),
    "module a number": json.dumps(_with_row(["from", 0, 3, ["y"]])).encode(),
    "names a string": json.dumps(_with_row(["from", 0, "x", "y"])).encode(),
    "name a number": json.dumps(_with_row(["from", 0, "x", [1]])).encode(),
}


@pytest.mark.parametrize("name", sorted(DAMAGED) + ["truncated"])
def test_a_damaged_store_reads_as_empty(tmp_path, parses, reference, name):
    specs = ALL_SPECS[:5]
    if name == "truncated":
        filled_index(tmp_path, specs)
        whole = (tmp_path / SCAN_STORE).read_bytes()
        content = whole[:len(whole) // 2]
    else:
        content = DAMAGED[name]
    (tmp_path / SCAN_STORE).write_bytes(content)
    parses.clear()
    index = SourceIndex()
    index.bind_store(tmp_path)
    assert fingerprints(index, specs) == reference[:5]
    # every module of the closures was parsed afresh ...
    plain = SourceIndex()
    count = len(parses)
    fingerprints(plain, specs)
    assert count == len(parses) - count > 0
    # ... and the store is whole again
    index.save_store()
    parses.clear()
    again = SourceIndex()
    again.bind_store(tmp_path)
    assert fingerprints(again, specs) == reference[:5]
    assert parses == []


# ----------------------------------------------------------------------
# invalidation and resolution, on a synthetic tree
# ----------------------------------------------------------------------
@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "src" / "repro"
    (root / "sub").mkdir(parents=True)
    (root / "x").mkdir()
    for name in ("__init__.py", "sub/__init__.py", "sub/d.py",
                 "x/__init__.py"):
        (root / name).write_text("")
    (root / "a.py").write_text("import repro.b\nfrom repro.x import y\n")
    (root / "b.py").write_text("import json\n")
    return root


def _index(root, store) -> SourceIndex:
    index = SourceIndex(root=root)
    index.bind_store(store)
    return index


def _stored_modules(store) -> dict:
    return json.loads((store / SCAN_STORE).read_text())["modules"]


def test_an_edit_rescans_only_the_edited_module(tree, tmp_path, parses):
    store = tmp_path / "cache"
    index = _index(tree, store)
    assert set(index.closure(["repro.a"])) == {"repro.a", "repro.b",
                                                "repro.x"}
    index.closure(index.all_modules())
    index.save_store()

    (tree / "b.py").write_text("import json\nfrom .sub import d\n")
    parses.clear()
    index = _index(tree, store)
    assert set(index.closure(["repro.a"])) == {
        "repro.a", "repro.b", "repro.x", "repro.sub", "repro.sub.d"}
    assert parses == [str(tree / "b.py")]
    index.save_store()

    (tree / "b.py").write_text("import json\nfrom .sub import d  # again\n")
    index = _index(tree, store)
    index.closure(["repro.a"])
    index.save_store()
    modules = _stored_modules(store)
    assert sorted(modules) == ["repro", "repro.a", "repro.b", "repro.sub",
                               "repro.sub.d", "repro.x"]
    assert modules["repro.b"]["digest"] == index.digest("repro.b")

    # a module that leaves the tree leaves the store at the next write
    (tree / "sub" / "d.py").unlink()
    (tree / "b.py").write_text("import json\n")
    index = _index(tree, store)
    index.closure(["repro.a"])
    index.save_store()
    assert "repro.sub.d" not in _stored_modules(store)


def test_resolution_follows_the_tree_not_the_store(tree, tmp_path, parses):
    store = tmp_path / "cache"
    index = _index(tree, store)
    assert index.imports_of("repro.a") == ("repro.b", "repro.x")
    index.save_store()

    # `from repro.x import y` named an attribute; now it names a module
    (tree / "x" / "y.py").write_text("")
    parses.clear()
    index = _index(tree, store)
    assert index.imports_of("repro.a") == ("repro.b", "repro.x",
                                           "repro.x.y")
    assert parses == []


# ----------------------------------------------------------------------
# writing: failures and concurrent writers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("blocked", ["read-only directory",
                                     "path is a directory"])
def test_an_unwritable_store_changes_no_fingerprint(tmp_path, reference,
                                                    blocked):
    cache = tmp_path / "cache"
    cache.mkdir()
    if blocked == "path is a directory":
        (cache / SCAN_STORE).mkdir()
    else:
        cache.chmod(0o555)
    try:
        index = SourceIndex()
        index.bind_store(cache)
        assert fingerprints(index) == reference
        index.save_store()
        assert not [p for p in cache.iterdir() if p.suffix == ".tmp"]
    finally:
        cache.chmod(0o755)


def _race(directory, threads: int = 8) -> list[list[str]]:
    """``threads`` threads fingerprint every spec through one index bound
    to ``directory``, each in its own order, saving after every spec;
    returns each thread's fingerprints."""
    index = SourceIndex()
    index.bind_store(directory)
    got: dict[int, list[str]] = {}
    errors = []
    start = threading.Barrier(threads, timeout=60)

    def work(k: int) -> None:
        try:
            start.wait()
            shift = k * len(ALL_SPECS) // threads
            prints = {}
            for spec in ALL_SPECS[shift:] + ALL_SPECS[:shift]:
                prints[spec.task_id] = task_fingerprint(spec, index=index)
                index.save_store()
            got[k] = [prints[spec.task_id] for spec in ALL_SPECS]
        except Exception as exc:  # reported below
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(k,))
               for k in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    return [got[k] for k in range(threads)]


def test_threads_sharing_an_index_leave_a_parseable_store(tmp_path,
                                                         reference):
    again = SourceIndex()
    scanned = {modname for spec in ALL_SPECS
               for modname in again.closure(task_roots(spec))}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            directory = tmp_path / str(round_)
            assert _race(directory) == [reference] * 8
            assert not [p for p in directory.iterdir()
                        if p.suffix == ".tmp"]
            # every scan made reached the store, from its own bytes
            stored = _stored_modules(directory)
            assert set(stored) == scanned
            assert all(entry["digest"] == again.digest(modname)
                       for modname, entry in stored.items())
    finally:
        sys.setswitchinterval(interval)
    again.bind_store(tmp_path / "0")
    assert fingerprints(again) == reference
