"""Job lifecycle: the store every endpoint reads and the bounded queue.

A :class:`Job` is one admitted submission travelling
``queued → running → ok | error | timeout``.  The :class:`JobStore`
owns every job for the server's lifetime (results stay pollable after
completion) and wakes event-stream watchers on every transition; the
:class:`JobQueue` is the *bounded* buffer between admission and the
runner — admission keeps it short under overload, and the bound is the
backstop that refuses work outright rather than queueing without limit.

Everything here runs on the event loop thread; the runner marks
transitions via the store from coroutines only, so no locks are needed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.exec.spec import TaskSpec

#: States a job never leaves (``ExecResult.status`` values plus the
#: server-side timeout).
TERMINAL_STATES = frozenset({"ok", "error", "timeout"})


@dataclass
class Job:
    """One admitted submission and everything learned about it since."""

    id: str
    spec: TaskSpec
    client: str
    state: str = "queued"
    #: Server-clock timestamps (monotonic seconds); latency math only.
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    cached: bool = False
    attempts: int = 0
    fingerprint: str | None = None
    error: str | None = None
    payload: dict[str, Any] | None = None
    #: Bumped on every transition; event streams key off it.
    version: int = 0
    changed: asyncio.Event = field(default_factory=asyncio.Event,
                                   repr=False)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> dict[str, Any]:
        """The wire form ``GET /jobs/<id>`` returns."""
        out: dict[str, Any] = {
            "id": self.id,
            "task_id": self.spec.task_id,
            "scenario": self.spec.scenario,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
            "fingerprint": self.fingerprint,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "version": self.version,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.payload is not None:
            out["metrics"] = self.payload.get("metrics")
            out["probe_digests"] = self.payload.get("probe_digests")
            if self.payload.get("series"):
                out["series"] = self.payload["series"]
            if self.payload.get("health"):
                out["health"] = self.payload["health"]
            out["wall_s"] = self.payload.get("wall_s")
        return out


class JobStore:
    """Every job the server has accepted, by id, with change wake-ups."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._next = 0

    def create(self, spec: TaskSpec, client: str,
               submitted_at: float) -> Job:
        self._next += 1
        job = Job(id=f"j{self._next:06d}", spec=spec, client=client,
                  submitted_at=submitted_at)
        self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def mark(self, job: Job, **updates: Any) -> None:
        """Apply ``updates`` and wake everyone waiting on the job."""
        for name, value in updates.items():
            if not hasattr(job, name):
                raise AttributeError(f"job has no field {name!r}")
            setattr(job, name, value)
        job.version += 1
        waker, job.changed = job.changed, asyncio.Event()
        waker.set()

    async def wait_change(self, job: Job, seen_version: int) -> None:
        """Return once ``job.version`` has moved past ``seen_version``."""
        while job.version == seen_version:
            event = job.changed
            if job.version != seen_version:
                break
            await event.wait()

    # ------------------------------------------------------------------
    # aggregate views (healthz / metrics / drain)
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._jobs)


class JobQueue:
    """Bounded FIFO of job ids between admission and the runner."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit!r}")
        self.limit = limit
        self._queue: asyncio.Queue[str | None] = asyncio.Queue(
            maxsize=0)  # bound enforced in put() so sentinels always fit

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    def put(self, job_id: str) -> bool:
        """Enqueue; False when the bound is hit (caller answers 503)."""
        if self._queue.qsize() >= self.limit:
            return False
        self._queue.put_nowait(job_id)
        return True

    def put_sentinel(self) -> None:
        """Unblock one runner worker for shutdown (bypasses the bound)."""
        self._queue.put_nowait(None)

    async def get(self) -> str | None:
        return await self._queue.get()

    def task_done(self) -> None:
        self._queue.task_done()

    async def join(self) -> None:
        await self._queue.join()
