"""Content-addressed task fingerprints.

A cached result may be reused only while *nothing that produced it*
changed: the spec itself (scenario, params, seed, probe set) and the
source of every module the task's code can reach.  The fingerprint
hashes both.

Source reachability is computed statically: starting from the scenario
entry's declared root modules (plus any params-derived roots, e.g. the
chosen algorithm's module), the walker parses each module's ``import``
statements and follows the ``repro``-internal ones.  Editing
``repro/scenarios/tcp.py`` therefore invalidates exactly the tasks whose
closure contains it — the TCP tasks — while the ATM tasks keep their
cache entries; editing ``repro/sim/engine.py`` (reachable from
everything) invalidates the world, as it must.

The entry's own defining file is hashed whole, so module-level
helpers and tables every entry calls (:mod:`repro.exec.entries`'
algorithm and policy tables, its parameter builders) are covered too;
the price is that any edit to that file re-runs all of its entries.

The executor/worker harness itself is *not* part of the closure; its
result-format compatibility is versioned explicitly through
``RESULT_VERSION`` (bump it when the payload layout or digesting
changes, and every cache entry ages out at once).

Finding a module's imports takes two steps.  A *scan*
(:func:`scan_imports`) lists the file's import statements; it depends
on the file's bytes alone, so a store bound to the result-cache
directory (:meth:`SourceIndex.bind_store`) keeps scans across processes,
keyed by file digest, and a fresh process parses only the files that
changed.  *Resolving* a scan against the tree (relative anchors,
package-ness, whether ``from pkg import name`` names a submodule) runs
in every process, because adding a module changes what an unchanged
importer resolves to.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import inspect
import json
import os
import sys
import threading
from pathlib import Path
from typing import Any, Iterable, TYPE_CHECKING

from repro.exec.spec import TaskSpec, canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.registry import ScenarioEntry

#: Version of the worker result payload; part of every fingerprint so a
#: harness change that alters result layout/digesting retires stale
#: cache entries wholesale.
RESULT_VERSION = 2  # v2: payloads carry the repro.obs.health report

#: Layout of a stored scan; bump it when :func:`scan_imports` changes
#: what it records, and every stored scan reads as absent.
SCAN_VERSION = 1

#: File name of the scan store inside a result-cache directory.
SCAN_STORE = "import-scans.json"

#: One import statement: ``(kind, level, module, names)``.  ``kind`` is
#: ``"import"`` (``names`` are the dotted modules it imports) or
#: ``"from"`` (``level`` and ``module`` as in :class:`ast.ImportFrom`).
Statement = tuple[str, int, "str | None", tuple[str, ...]]

#: Syntax trees, and so scans, may differ between interpreter versions.
_PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


class SourceIndex:
    """Digests and import closures over one on-disk package tree.

    The default instance indexes the installed ``repro`` package; tests
    point it at copies or synthetic trees.  All lookups are memoised for
    the life of the index (one CLI invocation / one test), so a batch of
    specs pays for each module parse once; with a store bound, once per
    file content across processes.
    """

    def __init__(self, root: str | Path | None = None,
                 package: str = "repro"):
        if root is None:
            import repro

            root = Path(repro.__file__).parent
        self.root = Path(root)
        self.package = package
        self._paths: dict[str, Path | None] = {}
        self._digests: dict[Path, str] = {}
        self._imports: dict[str, tuple[str, ...]] = {}
        self._closures: dict[tuple[str, ...], dict[str, str]] = {}
        #: module -> (digest of the bytes scanned, their scan)
        self._scans: dict[str, tuple[str, tuple[Statement, ...]]] = {}
        #: The bound store file, and the scans it held when last read or
        #: written (None until read).
        self._store: Path | None = None
        self._stored: dict[str, tuple[str, tuple[Statement, ...]]] | None \
            = None
        #: Guards ``_scans`` and the store fields: the gateway's slot
        #: threads share one index.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # module resolution
    # ------------------------------------------------------------------
    def module_path(self, modname: str) -> Path | None:
        """File backing ``modname``, or None when it is not ours."""
        if modname not in self._paths:
            self._paths[modname] = self._find(modname)
        return self._paths[modname]

    def _find(self, modname: str) -> Path | None:
        parts = modname.split(".")
        if parts[0] != self.package:
            return None
        base = self.root.joinpath(*parts[1:]) if parts[1:] else self.root
        init = base / "__init__.py"
        if init.is_file():
            return init
        as_file = base.with_suffix(".py")
        if as_file.is_file():
            return as_file
        return None

    def is_package(self, modname: str) -> bool:
        path = self.module_path(modname)
        return path is not None and path.name == "__init__.py"

    def all_modules(self) -> tuple[str, ...]:
        """Every module under the indexed tree, sorted by dotted name."""
        found: list[str] = []
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root)
            if "__pycache__" in rel.parts:
                continue
            parts = list(rel.parts[:-1])
            if rel.name != "__init__.py":
                parts.append(rel.name[:-3])
            found.append(".".join([self.package] + parts)
                         if parts else self.package)
        return tuple(sorted(found))

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------
    def digest(self, modname: str) -> str:
        """sha256 of the module's source bytes."""
        path = self.module_path(modname)
        if path is None:
            raise KeyError(f"module {modname!r} not found under "
                           f"{self.root}")
        return self.file_digest(path)

    def file_digest(self, path: str | Path) -> str:
        """sha256 of a source file's bytes (any file, not only ours)."""
        path = Path(path)
        if path not in self._digests:
            self._digests[path] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        return self._digests[path]

    # ------------------------------------------------------------------
    # import graph
    # ------------------------------------------------------------------
    def imports_of(self, modname: str) -> tuple[str, ...]:
        """Package-internal modules ``modname`` imports (resolved)."""
        if modname not in self._imports:
            path = self.module_path(modname)
            if path is None:
                raise KeyError(f"module {modname!r} not found under "
                               f"{self.root}")
            found: set[str] = set()
            for kind, level, module, names in self._scan(modname, path):
                if kind == "import":
                    found.update(name for name in names
                                 if self.module_path(name) is not None)
                    continue
                base = self._from_base(modname, level, module)
                if base is None:
                    continue
                if self.module_path(base) is not None:
                    found.add(base)
                found.update(f"{base}.{name}" for name in names
                             if self.module_path(f"{base}.{name}")
                             is not None)
            found.discard(modname)
            self._imports[modname] = tuple(sorted(found))
        return self._imports[modname]

    def _from_base(self, modname: str, level: int,
                   module: str | None) -> str | None:
        """Absolute module a ``from ... import`` pulls from, or None."""
        if level == 0:
            return module
        # relative import: anchor at the containing package
        anchor = modname.split(".")
        if not self.is_package(modname):
            anchor = anchor[:-1]
        if level - 1 > 0:
            anchor = anchor[:len(anchor) - (level - 1)]
        if not anchor:
            return None
        return ".".join(anchor + module.split(".")) \
            if module else ".".join(anchor)

    def closure(self, roots: Iterable[str]) -> dict[str, str]:
        """``module -> source digest`` for the transitive closure."""
        key = tuple(sorted(set(roots)))
        if key not in self._closures:
            seen: set[str] = set()
            frontier = [r for r in key if self.module_path(r) is not None]
            missing = sorted(set(key) - set(frontier))
            if missing:
                raise KeyError(
                    f"fingerprint root module(s) not found: "
                    f"{', '.join(missing)}")
            while frontier:
                mod = frontier.pop()
                if mod in seen:
                    continue
                seen.add(mod)
                frontier.extend(m for m in self.imports_of(mod)
                                if m not in seen)
            self._closures[key] = {mod: self.digest(mod)
                                   for mod in sorted(seen)}
        return self._closures[key]

    # ------------------------------------------------------------------
    # import scans and their store
    # ------------------------------------------------------------------
    def _scan(self, modname: str, path: Path) -> tuple[Statement, ...]:
        """The import scan of ``modname``'s current bytes: kept in
        memory or in the bound store if its digest matches, else
        parsed."""
        if self._stored is None and self._store is not None:
            self._read_store()
        entry = self._scans.get(modname)
        if entry is not None and entry[0] == self.file_digest(path):
            return entry[1]
        source = path.read_bytes()
        scan = scan_imports(source, str(path))
        # keyed by the bytes parsed, which an edit since file_digest
        # read the file may have changed
        with self._lock:
            self._scans[modname] = (hashlib.sha256(source).hexdigest(), scan)
        return scan

    def bind_store(self, directory: str | Path) -> None:
        """Keep this index's import scans in ``directory``'s store.

        The store is read on the first scan lookup after binding, and
        written by :meth:`save_store`.
        """
        path = Path(directory) / SCAN_STORE
        with self._lock:
            if path != self._store:
                self._store, self._stored = path, None

    def _read_store(self) -> None:
        with self._lock:
            if self._stored is not None or self._store is None:
                return
            self._stored = _read_scans(self._store)
            for modname, entry in self._stored.items():
                self._scans.setdefault(modname, entry)

    def save_store(self) -> None:
        """Write the scans to the bound store if they differ from what
        it held, so a run that parsed nothing writes nothing.

        Scans of modules no longer in the tree are dropped, which
        bounds the store by the tree's module count.  A failed write is
        ignored: the next process parses again, and its results are the
        same.  Writes hold the lock, so an older snapshot never lands
        after a newer one.
        """
        with self._lock:
            if self._stored is None or self._scans == self._stored:
                return
            for modname in [m for m in self._scans
                            if self.module_path(m) is None]:
                del self._scans[modname]
            self._stored = dict(self._scans)
            _write_scans(self._store, self._stored)


#: Statement-list fields of compound statements (``if``/``try``/``with``
#: blocks, loops, ``def``/``class`` bodies, ``except`` handlers,
#: ``match`` cases).
_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def _statements(body: list[ast.AST]) -> Iterable[ast.AST]:
    """Every statement in ``body``, nested blocks included.

    ``import`` is a statement, so this finds every import ``ast.walk``
    would, without visiting the expression nodes that make up most of a
    module's tree.
    """
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        for field in _BLOCKS:
            stack.extend(getattr(node, field, ()))


def scan_imports(source: bytes, filename: str) -> tuple[Statement, ...]:
    """Every distinct import statement of one source file, in walk
    order.  Depends on ``source`` alone: resolving a statement against
    a tree is :meth:`SourceIndex.imports_of`'s job."""
    found: dict[Statement, None] = {}
    for node in _statements(ast.parse(source, filename=filename).body):
        if isinstance(node, ast.Import):
            found["import", 0, None,
                  tuple(alias.name for alias in node.names)] = None
        elif isinstance(node, ast.ImportFrom):
            found["from", node.level, node.module,
                  tuple(alias.name for alias in node.names)] = None
    return tuple(found)


def _read_scans(path: Path) -> dict[str, tuple[str, tuple[Statement, ...]]]:
    """The scans in the store at ``path``; empty when it is missing,
    unreadable, malformed or written for another version."""
    try:
        data = json.loads(path.read_bytes())
        if (data["scan_version"] != SCAN_VERSION
                or data["python"] != _PYTHON):
            return {}
        return {modname: (_checked(entry["digest"], str),
                          tuple(map(_statement, entry["imports"])))
                for modname, entry in data["modules"].items()}
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return {}


def _statement(row: Any) -> Statement:
    kind, level, module, names = row
    if (kind not in ("import", "from") or type(level) is not int
            or level < 0 or not isinstance(module, (str, type(None)))):
        raise ValueError(f"malformed import scan row {row!r}")
    return kind, level, module, tuple(_checked(name, str)
                                      for name in _checked(names, list))


def _checked(value: Any, kind: type) -> Any:
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _write_scans(path: Path,
                 scans: dict[str, tuple[str, tuple[Statement, ...]]]
                 ) -> None:
    """Atomically replace the store at ``path`` with ``scans``."""
    data = {"scan_version": SCAN_VERSION, "python": _PYTHON,
            "modules": {modname: {"digest": digest, "imports": scan}
                        for modname, (digest, scan) in scans.items()}}
    # pid and thread id keep concurrent writers' temp files apart, as
    # in ResultCache.put
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


_DEFAULT_INDEX: SourceIndex | None = None


def default_index() -> SourceIndex:
    """Process-wide index over the installed ``repro`` package."""
    global _DEFAULT_INDEX
    if _DEFAULT_INDEX is None:
        _DEFAULT_INDEX = SourceIndex()
    return _DEFAULT_INDEX


def task_roots(spec: TaskSpec, entry: "ScenarioEntry | None" = None
               ) -> list[str]:
    """The task's fingerprint root modules: the entry's declared deps
    plus the ones its params choose."""
    from repro.exec.registry import get_scenario

    if entry is None:
        entry = get_scenario(spec.scenario)
    roots = list(entry.deps)
    if entry.param_deps is not None:
        roots.extend(entry.param_deps(spec.effective_params()))
    return roots


def task_fingerprint(spec: TaskSpec, entry: "ScenarioEntry | None" = None,
                     index: SourceIndex | None = None) -> str:
    """Content address of one task: spec + entry's defining file + dep
    sources."""
    from repro.exec.registry import get_scenario

    if entry is None:
        entry = get_scenario(spec.scenario)
    if index is None:
        index = default_index()
    material = {
        "result_version": RESULT_VERSION,
        "spec": spec.canonical(),
        "entry": index.file_digest(inspect.getsourcefile(entry.fn)),
        "deps": index.closure(task_roots(spec, entry)),
    }
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()
