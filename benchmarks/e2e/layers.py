"""Layer attribution and span recording for the end-to-end benchmark.

Two measurement tools, both used from outside the program:

* :func:`attribute` groups a ``cProfile`` run by layer.  Every ``repro``
  module maps to one layer (:data:`LAYER_PREFIXES`); the benchmark's own
  files are the ``bench`` layer.  A function outside both (a builtin
  such as ``heappush``, or stdlib code such as ``ast.parse``) has its
  self time handed to its callers in proportion to the pstats caller
  records, recursively, until a ``repro`` or benchmark frame is reached.
  Without this step the heap and array builtins the packet kernel calls
  would form a large anonymous bucket instead of counting for the layer
  that called them.
* :class:`Spans` records named spans (start, end, parent, optional task
  or job id) in memory and writes them as a Chrome ``trace_event`` file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

#: Module prefix -> layer; the longest matching prefix wins.  A
#: ``repro`` module no prefix covers (a new subpackage) maps to no layer
#: and is reported, so the map cannot silently go stale.
LAYER_PREFIXES: dict[str, str] = {
    "repro": "cli",
    "repro.cli": "cli",
    "repro.__main__": "cli",
    "repro.sim": "sim.engine",
    "repro.sim.probe": "sim.probe",
    "repro.atm": "atm.network",
    "repro.atm.port": "atm.port",
    "repro.atm.link": "atm.link",
    "repro.atm.switch": "atm.switch",
    "repro.atm.endsystem": "atm.endsystem",
    # cells are built by the end systems, one object per cell sent
    "repro.atm.cell": "atm.endsystem",
    "repro.core": "core.phantom",
    "repro.core.fairness": "core.fairness",
    "repro.baselines": "baselines",
    "repro.scenarios": "scenarios",
    "repro.tcp": "tcp.network",
    "repro.tcp.reno": "tcp.reno",
    "repro.tcp.variants": "tcp.reno",
    # segments are built by the sources (data) and the sinks (ACKs)
    "repro.tcp.segment": "tcp.reno",
    "repro.tcp.router": "tcp.router",
    "repro.tcp.phantom_router": "tcp.router",
    "repro.tcp.red": "tcp.router",
    "repro.tcp.link": "tcp.link",
    "repro.tcp.sink": "tcp.sink",
    "repro.fluid": "fluid.model",
    "repro.fluid.stepper": "fluid.stepper",
    "repro.exec": "exec.spec",
    "repro.exec.fingerprint": "exec.fingerprint",
    "repro.exec.cache": "exec.cache",
    "repro.exec.pool": "exec.pool",
    "repro.exec.worker": "exec.worker",
    "repro.obs": "obs",
    "repro.obs.health": "obs.health",
    "repro.obs.monitor": "obs.health",
    "repro.perf": "perf.golden",
    "repro.fuzz": "fuzz.harness",
    "repro.fuzz.oracle": "fuzz.oracle",
    "repro.serve": "serve",
    "repro.analysis": "analysis",
    "repro.lint": "lint",
}

#: The benchmark's own code (``benchmarks/e2e/*.py``).
BENCH = "bench"
#: Stdlib or builtin time with no ``repro`` or benchmark frame above it.
PYTHON = "python"


def layer_of_module(module: str) -> str | None:
    """The layer of a dotted ``repro`` module name (None if unmapped).

    The bare ``repro`` entry names the package's ``__init__`` only; it
    is not a prefix for the subpackages."""
    if module in LAYER_PREFIXES:
        return LAYER_PREFIXES[module]
    parts = module.split(".")
    for end in range(len(parts) - 1, 1, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


class FileLayers:
    """Maps profiled file names to layers, memoised per file."""

    def __init__(self, repro_root: Path, bench_root: Path):
        self.repro_root = repro_root.resolve()
        self.bench_root = bench_root.resolve()
        self.modules: set[str] = set()
        self._cache: dict[str, str | None] = {}

    def module_of(self, filename: str) -> str | None:
        """Dotted ``repro`` module of a file, or None for other files."""
        if filename.startswith(("~", "<")):
            return None
        try:
            rel = Path(filename).resolve().relative_to(self.repro_root)
        except ValueError:
            return None
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(["repro", *parts])

    def __call__(self, filename: str) -> str | None:
        if filename not in self._cache:
            module = self.module_of(filename)
            if module is not None:
                self.modules.add(module)
                self._cache[filename] = layer_of_module(module)
            elif self._is_bench(filename):
                self._cache[filename] = BENCH
            else:
                self._cache[filename] = None
        return self._cache[filename]

    def unmapped(self) -> list[str]:
        """Profiled ``repro`` modules the layer map does not cover."""
        return sorted(m for m in self.modules if layer_of_module(m) is None)

    def _is_bench(self, filename: str) -> bool:
        if filename.startswith(("~", "<")):
            return False
        return Path(filename).resolve().parent == self.bench_root


#: Most steps of the upward walk; it stops once a step absorbs nothing.
_ROUNDS = 64


def attribute(stats: Mapping[tuple, tuple],
              layer_of_file: Callable[[str], str | None]
              ) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    A function in no layer splits its self time over its direct callers
    by the self time each caller record holds.  A caller in no layer
    passes its part on to its own callers by their inclusive time, and
    so on up: the shares are the absorption probabilities of that walk,
    found by iterating it (import machinery and other recursion make
    the caller graph cyclic).  Mass the walk never absorbs, and time with
    no caller at all, goes to ``python``.
    """
    layer = {func: layer_of_file(func[0]) for func in stats}
    upward = {func: _weights(entry[4], 3) for func, entry in stats.items()
              if layer[func] is None}
    owners: dict[tuple, dict[str, float]] = {func: {} for func in upward}
    absorbed = 0.0
    for _ in range(_ROUNDS):
        owners = {func: _mix(weights, layer, owners)
                  for func, weights in upward.items()}
        before, absorbed = absorbed, sum(
            sum(shares.values()) for shares in owners.values())
        if absorbed - before < 1e-12:
            break

    seconds: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        shares = ({layer[func]: 1.0} if layer[func] is not None
                  else _mix(_weights(callers, 2), layer, owners))
        for name, share in shares.items():
            seconds[name] = seconds.get(name, 0.0) + tt * share
        leftover = 1.0 - sum(shares.values())
        if leftover > 0:
            seconds[PYTHON] = seconds.get(PYTHON, 0.0) + tt * leftover
    return seconds


def _weights(callers: Mapping[tuple, tuple], field: int
             ) -> dict[tuple, float]:
    """Caller weights normalised from ``callers[c][field]`` (call counts
    when every such time is zero)."""
    weights = {c: v[field] for c, v in callers.items()}
    if sum(weights.values()) <= 0:
        weights = {c: v[1] for c, v in callers.items()}
    total = sum(weights.values())
    return {c: w / total for c, w in weights.items()} if total > 0 else {}


def _mix(weights: Mapping[tuple, float], layer: Mapping[tuple, str | None],
         owners: Mapping[tuple, Mapping[str, float]]) -> dict[str, float]:
    """Layer shares of a function, from its callers' weights."""
    out: dict[str, float] = {}
    for caller, weight in weights.items():
        named = layer.get(caller)
        for name, share in ({named: 1.0} if named is not None
                            else owners.get(caller, {})).items():
            out[name] = out.get(name, 0.0) + weight * share
    return out


class Spans:
    """In-memory span recorder, written out once the benchmark ends.

    Each record holds a name, start and end (``time.monotonic`` seconds,
    the clock the serve gateway stamps its jobs with), the index of the
    enclosing span, and an optional id shared by every span of one task
    or job.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, id: str | None = None
             ) -> Iterator[dict[str, Any]]:
        record = self.add(name, time.monotonic(), None, id=id)
        self._open.append(len(self.records) - 1)
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def add(self, name: str, start: float, end: float | None, *,
            id: str | None = None,
            parent: int | None = None) -> dict[str, Any]:
        """Record an externally timed span; the parent defaults to the
        innermost open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        record = {"name": name, "start": start, "end": end,
                  "parent": parent, "id": id}
        self.records.append(record)
        return record

    def chrome(self) -> dict[str, Any]:
        """Chrome ``trace_event`` form: spans without an id nest on one
        track; spans sharing an id form one async track per task/job."""
        origin = min((r["start"] for r in self.records), default=0.0)
        events = []
        for index, record in enumerate(self.records):
            ts = (record["start"] - origin) * 1e6
            end = (record["end"] if record["end"] is not None
                   else record["start"])
            args = {"span": index, "parent": record["parent"]}
            if record["id"] is None:
                events.append({"name": record["name"], "ph": "X",
                               "ts": ts, "dur": (end - record["start"]) * 1e6,
                               "pid": 1, "tid": 1, "args": args})
                continue
            args["id"] = record["id"]
            common = {"name": record["name"], "cat": "task", "pid": 1,
                      "tid": 2, "id": record["id"], "args": args}
            events.append({**common, "ph": "b", "ts": ts})
            events.append({**common, "ph": "e",
                           "ts": (end - origin) * 1e6})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Path) -> None:
        path.write_text(json.dumps(self.chrome()) + "\n", encoding="utf-8")
