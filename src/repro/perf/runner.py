"""Perf measurement runner: events/sec, cells/sec, wall time.

Runs the :mod:`repro.perf.workloads` configurations under a wall-clock
timer and records the numbers that define the repository's performance
trajectory.  ``repro perf`` merges them into ``BENCH_perf.json`` at the
repo root; the CI smoke job re-runs the suite at a reduced scale and
fails when the machine-normalised cost (wall seconds per simulated
second) regresses by more than the configured factor against the
committed baseline.

Wall time is machine-dependent; ``wall_per_sim_sec`` divides it by the
simulated horizon so baselines captured at ``scale=1`` remain comparable
with smoke runs at ``scale=0.2``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Iterable

from repro.perf.workloads import WORKLOADS

#: Default output file, at the repository root by convention.
DEFAULT_OUTPUT = "BENCH_perf.json"
#: CI fails when wall_per_sim_sec exceeds baseline by this factor.
DEFAULT_REGRESSION_FACTOR = 2.0


def measure(name: str, scale: float = 1.0, repeats: int = 1) -> dict[str, Any]:
    """Run workload ``name`` ``repeats`` times; report the best wall time.

    Best-of-N is the standard noise reducer for wall-clock benchmarks:
    interference only ever makes a run slower.
    """
    workload = WORKLOADS[name]
    best_wall = None
    run = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run = workload.build_and_run(scale)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    sim = run.net.sim
    cells = workload.cells(run)
    sim_seconds = workload.sim_seconds * scale
    return {
        "description": workload.description,
        "scale": scale,
        "sim_seconds": sim_seconds,
        "wall_s": round(best_wall, 4),
        "wall_per_sim_sec": round(best_wall / sim_seconds, 4),
        "events": sim.executed_events,
        "events_per_sec": round(sim.executed_events / best_wall),
        "cells": cells,
        "cells_per_sec": round(cells / best_wall),
        "cpus": os.cpu_count(),
    }


def run_suite(names: Iterable[str] | None = None, scale: float = 1.0,
              repeats: int = 1) -> dict[str, Any]:
    """Measure every requested workload and assemble the report."""
    selected = sorted(names) if names else sorted(WORKLOADS)
    unknown = [n for n in selected if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workload(s): {', '.join(unknown)}; "
                       f"known: {', '.join(sorted(WORKLOADS))}")
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {name: measure(name, scale=scale, repeats=repeats)
                      for name in selected},
    }


def environment_mismatches(current: dict[str, Any],
                           baseline: dict[str, Any]) -> list[str]:
    """Environment fields on which ``current`` and ``baseline`` disagree.

    Wall-clock numbers only gate meaningfully against a baseline captured
    on a comparable host; a baseline from another machine or interpreter
    should be *flagged*, not silently compared.  Returns one line per
    differing field, and per workload row whose ``cpus`` differ (empty =
    same recorded environment); fields absent from either report
    (pre-versioned baselines) are not flagged.
    """
    notes: list[str] = []
    for field in ("python", "machine"):
        ours = current.get(field)
        theirs = baseline.get(field)
        if ours and theirs and ours != theirs:
            notes.append(f"{field}: baseline recorded {theirs!r}, "
                         f"this host reports {ours!r}")
    base_rows = baseline.get("workloads", {})
    for name, row in sorted(current.get("workloads", {}).items()):
        ours = row.get("cpus")
        theirs = base_rows.get(name, {}).get("cpus")
        if ours and theirs and ours != theirs:
            notes.append(f"cpus: baseline recorded {theirs!r} for {name}, "
                         f"this host reports {ours!r}")
    return notes


def check_regression(current: dict[str, Any], baseline: dict[str, Any],
                     factor: float = DEFAULT_REGRESSION_FACTOR) -> list[str]:
    """Compare normalised wall cost against a baseline report.

    Returns one message per workload whose ``wall_per_sim_sec`` exceeds
    ``factor`` times the baseline's.  Workloads missing from either side
    are skipped (the baseline gates what it measured, nothing more).
    """
    problems: list[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, entry in sorted(current.get("workloads", {}).items()):
        base = base_workloads.get(name)
        if base is None or "wall_per_sim_sec" not in base:
            continue
        allowed = base["wall_per_sim_sec"] * factor
        got = entry["wall_per_sim_sec"]
        if got > allowed:
            problems.append(
                f"{name}: wall/sim-sec {got:.3f} exceeds {factor:g}x "
                f"baseline ({base['wall_per_sim_sec']:.3f})")
    return problems


def merge_report(path: str, section: str, rows: dict[str, Any],
                 **fields: Any) -> dict[str, Any]:
    """Merge ``rows`` into ``section`` of the report at ``path``.

    A row replaces the row of the same name; every other row and section
    is kept, so each recorder (``repro perf`` and the ``--record-bench``
    options) refreshes only what it measured.  ``fields`` set top-level
    keys.  A missing or unreadable report starts empty.
    """
    try:
        report = read_report(path)
    except (OSError, ValueError):
        report = {}
    report.update(fields)
    report.setdefault(section, {}).update(rows)
    write_report(path, report)
    return report


def write_report(path: str, report: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
