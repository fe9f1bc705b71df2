"""Parallel task execution with ordered, cache-aware collection.

``run_tasks`` is the one entry point: it takes declarative
:class:`~repro.exec.spec.TaskSpec` batches and returns one
:class:`ExecResult` per spec **in submission order**, whatever the
execution mode:

* ``jobs=1`` runs every task in-process (no pool, no pickling) — the
  reference serial order;
* ``jobs=N`` fans tasks out over a ``ProcessPoolExecutor``; each task is
  an independent simulation with its own explicitly-seeded RNG streams,
  so the per-task golden probe digests are bit-identical to the serial
  run's (the parity tests hold that proof obligation);
* with a :class:`~repro.exec.cache.ResultCache`, fingerprint hits skip
  execution entirely and return the cached payload.

Failures are data, not exceptions: a task that raises comes back as an
``ExecResult`` with ``status="error"`` after ``retries`` re-attempts; a
task that overruns ``timeout`` seconds (enforced in the worker via
``SIGALRM`` on platforms that have it) comes back as ``"timeout"``.  A
broken pool (a worker killed hard) is rebuilt and the affected tasks
re-attempted within the same retry budget.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.fingerprint import (SourceIndex, default_index,
                                    task_fingerprint, task_roots)
from repro.exec.spec import TaskSpec

# The worker, the simulator and the process machinery load only when a
# task runs, so a fully cached batch never imports them.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from repro.sim.probe import Probe

#: Hard ceiling on ``default_jobs`` — simulations are CPU-bound, and
#: beyond the core count extra workers only add memory pressure.
MAX_DEFAULT_JOBS = 4


def default_jobs() -> int:
    """Worker count when the caller does not choose one (``-j``): the
    core count, capped at :data:`MAX_DEFAULT_JOBS`."""
    return max(1, min(MAX_DEFAULT_JOBS, os.cpu_count() or 1))


@dataclass
class ExecResult:
    """Outcome of one spec: payload plus execution provenance."""

    spec: TaskSpec
    status: str                      # "ok" | "error" | "timeout"
    payload: dict[str, Any] | None   # worker result payload (ok) or None
    cached: bool = False
    attempts: int = 0
    fingerprint: str | None = None
    error: str | None = None
    #: Simulation wall seconds as measured inside the worker (0.0 for
    #: cache hits — that is the point of the cache).
    wall_s: float = 0.0
    #: Extra context for reporting layers.
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def metric(self, name: str) -> float:
        """Convenience accessor for a summary metric of an ok result."""
        if not self.ok:
            raise ValueError(
                f"task {self.spec.task_id!r} has no metrics "
                f"(status {self.status!r}: {self.error})")
        return self.payload["metrics"][name]

    def digests(self) -> dict[str, Any]:
        if not self.ok:
            return {}
        return self.payload["probe_digests"]

    def probe(self, name: str) -> Probe:
        """Rebuild a requested probe series as a queryable Probe.

        Only series named in the spec's ``probes`` travel back from the
        worker; JSON round-trips floats exactly (shortest-repr), so the
        rebuilt series is bit-identical to the in-process one.
        """
        from repro.sim.probe import Probe

        if not self.ok:
            raise ValueError(
                f"task {self.spec.task_id!r} has no series "
                f"(status {self.status!r}: {self.error})")
        series = self.payload.get("series", {})
        if name not in series:
            raise KeyError(
                f"series {name!r} was not requested by task "
                f"{self.spec.task_id!r}; spec.probes carries "
                f"{sorted(series) or 'nothing'}")
        probe = Probe(name)
        probe.times = list(series[name]["times"])
        probe.values = list(series[name]["values"])
        return probe


def _work_payload(spec: TaskSpec, timeout: float | None) -> dict[str, Any]:
    return {"spec": spec.to_dict(), "timeout": timeout}


def _from_payload(spec: TaskSpec, payload: dict[str, Any],
                  attempts: int, fingerprint: str | None) -> ExecResult:
    status = payload.get("status", "error")
    if status == "ok":
        return ExecResult(spec=spec, status="ok", payload=payload,
                          attempts=attempts, fingerprint=fingerprint,
                          wall_s=payload.get("wall_s", 0.0))
    return ExecResult(spec=spec, status=status, payload=None,
                      attempts=attempts, fingerprint=fingerprint,
                      error=payload.get("error"))


def _check_specs(specs: Sequence[TaskSpec]) -> None:
    seen: dict[str, int] = {}
    for i, spec in enumerate(specs):
        if spec.task_id in seen:
            raise ValueError(
                f"duplicate task_id {spec.task_id!r} at positions "
                f"{seen[spec.task_id]} and {i}")
        seen[spec.task_id] = i


def run_tasks(specs: Iterable[TaskSpec], *, jobs: int | None = None,
              cache: ResultCache | None = None,
              timeout: float | None = None, retries: int = 1,
              index: SourceIndex | None = None) -> list[ExecResult]:
    """Execute ``specs`` and return ordered :class:`ExecResult` rows."""
    specs = list(specs)
    _check_specs(specs)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")

    results: list[ExecResult | None] = [None] * len(specs)
    to_run: list[tuple[int, TaskSpec, str | None]] = []
    if cache is not None:
        index = index if index is not None else default_index()
        index.bind_store(cache.root)
    for i, spec in enumerate(specs):
        fingerprint = None
        if cache is not None:
            try:
                fingerprint = task_fingerprint(spec, index=index)
            except (KeyError, ValueError):
                # an unknown scenario, algorithm or policy: the task
                # runs uncached and fails as it does without a cache
                pass
        payload = cache.get(fingerprint) if fingerprint else None
        if payload is not None:
            results[i] = ExecResult(spec=spec, status="ok",
                                    payload=payload, cached=True,
                                    fingerprint=fingerprint)
            continue
        to_run.append((i, spec, fingerprint))
    if cache is not None:
        index.save_store()

    if to_run:
        runner = _run_serial if jobs == 1 or len(to_run) == 1 \
            else _run_parallel
        for i, result in runner(to_run, jobs=jobs, timeout=timeout,
                                retries=retries):
            results[i] = result
            if (cache is not None and result.ok
                    and result.fingerprint is not None):
                cache.put(result.fingerprint, result.payload,
                          spec=result.spec.to_dict())
    return [r for r in results if r is not None]


# ----------------------------------------------------------------------
# execution strategies
# ----------------------------------------------------------------------
def _run_serial(to_run, *, jobs: int, timeout: float | None,
                retries: int):
    from repro.exec.worker import execute_task

    del jobs
    for i, spec, fingerprint in to_run:
        attempts = 0
        while True:
            attempts += 1
            payload = execute_task(_work_payload(spec, timeout))
            if payload.get("status") == "ok" or attempts > retries:
                yield i, _from_payload(spec, payload, attempts,
                                       fingerprint)
                break


def _make_pool(jobs: int) -> ProcessPoolExecutor:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_all_start_methods, get_context

    # fork keeps already-imported modules (and any test-registered
    # scenario entries) available in the workers; elsewhere the default
    # start method re-imports the registry's builtin entries on demand.
    if "fork" in get_all_start_methods():
        return ProcessPoolExecutor(max_workers=jobs,
                                   mp_context=get_context("fork"))
    return ProcessPoolExecutor(max_workers=jobs)


def _duration_hint(spec: TaskSpec) -> float:
    """Simulated-duration proxy for scheduling (0.0 when unknown)."""
    value = spec.params.get("duration", 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def _import_roots(to_run) -> None:
    """Import what the tasks will run before forking, so the workers
    inherit it instead of each compiling the simulator again."""
    for _, spec, _ in to_run:
        try:
            for root in task_roots(spec):
                importlib.import_module(root)
        except Exception:
            # an unknown scenario or algorithm, or a module that fails
            # to import, fails again in the task's worker, which returns
            # the error as the task's result
            continue


def _run_parallel(to_run, *, jobs: int, timeout: float | None,
                  retries: int):
    from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

    from repro.exec.worker import execute_task

    _import_roots(to_run)
    pool = _make_pool(jobs)
    pending: dict[Any, tuple[int, TaskSpec, str | None, int]] = {}

    def submit(i: int, spec: TaskSpec, fingerprint: str | None,
               attempt: int) -> ExecResult | None:
        nonlocal pool
        for _ in range(2):
            try:
                fut = pool.submit(execute_task,
                                  _work_payload(spec, timeout))
            except BrokenExecutor:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = _make_pool(jobs)
                continue
            pending[fut] = (i, spec, fingerprint, attempt)
            return None
        return ExecResult(spec=spec, status="error", payload=None,
                          attempts=attempt, fingerprint=fingerprint,
                          error="executor pool could not be (re)created")

    try:
        # longest-first submission: with few workers and unequal tasks
        # the makespan is set by whichever long task starts last, so
        # order by the spec's simulated duration (the dominant length
        # proxy) descending; result order is restored by index upstream
        for i, spec, fingerprint in sorted(
                to_run, key=lambda item: -_duration_hint(item[1])):
            failed = submit(i, spec, fingerprint, 1)
            if failed is not None:
                yield i, failed
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                i, spec, fingerprint, attempt = pending.pop(fut)
                try:
                    payload = fut.result()
                except Exception as exc:  # worker died / pool broke
                    payload = {"status": "error",
                               "error": f"worker failed: {exc!r}"}
                if payload.get("status") == "ok" or attempt > retries:
                    yield i, _from_payload(spec, payload, attempt,
                                           fingerprint)
                    continue
                failed = submit(i, spec, fingerprint, attempt + 1)
                if failed is not None:
                    yield i, failed
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
