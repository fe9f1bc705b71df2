"""The experiment index's behaviour contract: every E01-E26 task, pinned.

``fixtures/suite-scale0.05-seed0.json`` holds, for each task of
``repro suite --scale 0.05 --seed 0``, the sha256 digest of every probe
series the worker reduces, plus the merged health report of the whole
suite.  The test re-runs the suite in-process, uncached, and requires
an exact match, so a refactor of a scenario builder, a registry entry
or a renderer that moves one sample of one task fails here.

Under ``reduce`` it also holds what each task's reducers made of those
series: the queue metrics and utilisation of :data:`REDUCED_METRICS`
and the ``queue_bound`` check's evidence (bounds, peaks, first
crossings).  These must match to the last bit too, compared as JSON
text so ``-0.0`` and ``0`` stay distinct from ``0.0``.  Values that pass
through builtin ``sum()``, such as ``rates.*``, ``jain`` and
``total_goodput``, are left out: ``sum()`` rounds differently from
Python 3.12 on, and this test must hold on 3.10-3.12 alike.  The test
functions need no pytest fixture, so another interpreter can call them
directly.

Regenerate (only for a change that means to move behaviour, with the
reason in CHANGES.md)::

    PYTHONPATH=src python -m tests.golden.test_suite_digests
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Any

SCALE = 0.05
SEED = 0
FIXTURE = (Path(__file__).resolve().parent / "fixtures"
           / f"suite-scale{SCALE:g}-seed{SEED}.json")

#: Worker metrics read from the time-weighted mean, builtin ``max`` and
#: the utilisation loop, none of which goes through ``sum()``.
REDUCED_METRICS = ("queue.max", "queue.mean", "queue.steady_mean",
                   "utilization")


def capture() -> dict[str, Any]:
    """Probe digests of every suite task, the merged health report and
    each task's sum-free reduced values."""
    from repro.exec.pool import run_tasks
    from repro.exec.suite import suite_specs
    from repro.obs.health import merge_health

    results = run_tasks(suite_specs(scale=SCALE, seed=SEED), jobs=1,
                        cache=None)
    failed = {r.spec.task_id: r.error for r in results if not r.ok}
    if failed:
        raise RuntimeError(f"suite tasks failed: {failed}")
    return {
        "scale": SCALE,
        "seed": SEED,
        "probe_digests": {r.spec.task_id: r.payload["probe_digests"]
                          for r in results},
        "health": merge_health({r.spec.task_id: r.payload["health"]
                                for r in results}),
        "reduce": {r.spec.task_id: _reduced(r.payload) for r in results},
    }


def _reduced(payload: dict[str, Any]) -> dict[str, Any]:
    """The sum-free reduced values of one task's worker payload."""
    metrics = payload["metrics"]
    bound, = (check["evidence"] for check in payload["health"]["checks"]
              if check["name"] == "queue_bound")
    return {"metrics": {name: metrics[name] for name in REDUCED_METRICS
                        if name in metrics},
            "queue_bound": bound}


@lru_cache(maxsize=1)
def _captured() -> dict[str, Any]:
    return capture()


def _expected() -> dict[str, Any]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_suite_reproduces_committed_digests():
    expected = _expected()
    actual = _captured()
    assert sorted(actual["probe_digests"]) \
        == sorted(expected["probe_digests"])
    moved = [task for task, digests in expected["probe_digests"].items()
             if actual["probe_digests"][task] != digests]
    assert moved == []
    assert actual["health"] == expected["health"]


def test_suite_reproduces_committed_reduce():
    expected = _expected()["reduce"]
    actual = _captured()["reduce"]
    assert sorted(actual) == sorted(expected)
    moved = [task for task, reduced in expected.items()
             if json.dumps(actual[task], sort_keys=True)
             != json.dumps(reduced, sort_keys=True)]
    assert moved == []


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True)
                       + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
