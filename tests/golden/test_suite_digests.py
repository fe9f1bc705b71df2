"""The experiment index's behaviour contract: every E01-E26 task, pinned.

``fixtures/suite-scale0.05-seed0.json`` holds, for each task of
``repro suite --scale 0.05 --seed 0``, the sha256 digest of every probe
series the worker reduces, plus the merged health report of the whole
suite.  The test re-runs the suite in-process, uncached, and requires
an exact match, so a refactor of a scenario builder, a registry entry
or a renderer that moves one sample of one task fails here.

Regenerate (only for a change that means to move behaviour, with the
reason in CHANGES.md)::

    PYTHONPATH=src python -m tests.golden.test_suite_digests
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

SCALE = 0.05
SEED = 0
FIXTURE = (Path(__file__).resolve().parent / "fixtures"
           / f"suite-scale{SCALE:g}-seed{SEED}.json")


def capture() -> dict[str, Any]:
    """Probe digests of every suite task and the merged health report."""
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
    }


def test_suite_reproduces_committed_digests():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = capture()
    assert sorted(actual["probe_digests"]) \
        == sorted(expected["probe_digests"])
    moved = [task for task, digests in expected["probe_digests"].items()
             if actual["probe_digests"][task] != digests]
    assert moved == []
    assert actual["health"] == expected["health"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True)
                       + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
