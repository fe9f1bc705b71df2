"""Run manifests: the machine-readable record of what produced a result.

Every ``repro run``/``repro perf``/``repro suite`` invocation writes one
of these next to its output, so a committed benchmark table or BENCH entry
can be traced back to the exact configuration — command, scenario
parameters, seed, git revision, interpreter/platform — and to a metric
summary of the run itself.  ``repro obs diff`` compares two manifests;
environment fields (git rev, python, platform, wall time) are *volatile*
and excluded from the comparison unless asked for, so "same config, two
machines" diffs clean while "same command, different seed" does not.

The wall time is measured by the caller (the CLI layer, where wall-clock
reads are legitimate) and passed in; nothing in this module reads the
clock, so manifest construction itself is deterministic.
"""

from __future__ import annotations

import json
import platform
import subprocess
from typing import Any

#: Schema identifier stamped into every manifest.
MANIFEST_SCHEMA = "repro.obs.manifest"
#: Bump when the manifest layout changes.
MANIFEST_VERSION = 1

#: Fields that describe the environment or the measurement, not the
#: configuration: they legitimately differ between otherwise-identical
#: runs and are ignored by :func:`diff_manifests` by default.
VOLATILE_FIELDS = frozenset({"git_rev", "python", "platform", "wall_s",
                             "trace", "execution"})


def git_revision(cwd: str | None = None) -> str | None:
    """The current git commit hash, or None outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(command: str, params: dict[str, Any], *,
                   seed: int | None = None,
                   metrics: dict[str, float] | None = None,
                   wall_s: float | None = None,
                   trace_path: str | None = None,
                   tasks: list[dict[str, Any]] | None = None,
                   execution: dict[str, Any] | None = None,
                   health: dict[str, Any] | None = None
                   ) -> dict[str, Any]:
    """Assemble a manifest dict for one CLI invocation.

    ``params`` is the scenario configuration (registry name and
    keywords, scales); ``metrics`` is a flat name -> number map (the
    exec worker's reduced metrics for ``repro run``); ``wall_s``
    is the caller-measured wall time of the run.  Multi-task commands
    (``repro suite``/``repro sweep``) pass ``tasks`` — per-task
    provenance rows (id, scenario, fingerprint, status), which are
    configuration and diff like it — and ``execution`` — job counts,
    cache hit/miss tallies and the like, which are volatile and skipped
    by :func:`diff_manifests` along with the other environment fields.
    ``health`` is the run's HealthReport (:mod:`repro.obs.health`, or
    its suite-level merge); it is deterministic for a given
    configuration and therefore diffs like a result.
    """
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "version": MANIFEST_VERSION,
        "command": command,
        "params": dict(params),
        "seed": seed,
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if wall_s is not None:
        manifest["wall_s"] = round(wall_s, 4)
    if trace_path is not None:
        manifest["trace"] = trace_path
    if metrics is not None:
        manifest["metrics"] = dict(metrics)
    if tasks is not None:
        manifest["tasks"] = [dict(task) for task in tasks]
    if execution is not None:
        manifest["execution"] = dict(execution)
    if health is not None:
        manifest["health"] = dict(health)
    return manifest


def write_manifest(path: str, manifest: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    return manifest


def validate_manifest(manifest: dict[str, Any]) -> list[str]:
    """Schema check; returns human-readable problems (empty = valid)."""
    problems: list[str] = []
    if manifest.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema {manifest.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA!r}")
    if manifest.get("version") != MANIFEST_VERSION:
        problems.append(
            f"version {manifest.get('version')!r}, "
            f"expected {MANIFEST_VERSION}")
    if not isinstance(manifest.get("command"), str):
        problems.append("missing or non-string 'command'")
    if not isinstance(manifest.get("params"), dict):
        problems.append("missing or non-dict 'params'")
    metrics = manifest.get("metrics")
    if metrics is not None and not isinstance(metrics, dict):
        problems.append("'metrics' present but not a dict")
    health = manifest.get("health")
    if health is not None:
        from repro.obs.health import HEALTH_SCHEMA, validate_health
        if not isinstance(health, dict):
            problems.append("'health' present but not a dict")
        elif health.get("schema") == HEALTH_SCHEMA:
            # per-run HealthReports are schema-checked in full;
            # suite-level merges only need to be objects
            problems.extend(
                f"health: {problem}"
                for problem in validate_health(health))
    return problems


def _flatten(prefix: str, value: Any, out: dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key),
                     value[key], out)
    else:
        out[prefix] = value


def diff_manifests(a: dict[str, Any], b: dict[str, Any],
                   include_volatile: bool = False) -> list[str]:
    """Field-by-field comparison of two manifests.

    Returns one line per differing (flattened) field; empty means the
    manifests describe the same configuration and results.  Volatile
    environment fields are skipped unless ``include_volatile``.
    """
    flat_a: dict[str, Any] = {}
    flat_b: dict[str, Any] = {}
    _flatten("", a, flat_a)
    _flatten("", b, flat_b)
    diffs: list[str] = []
    for key in sorted(set(flat_a) | set(flat_b)):
        top = key.split(".", 1)[0]
        if not include_volatile and top in VOLATILE_FIELDS:
            continue
        if key not in flat_a:
            diffs.append(f"{key}: only in second ({flat_b[key]!r})")
        elif key not in flat_b:
            diffs.append(f"{key}: only in first ({flat_a[key]!r})")
        elif flat_a[key] != flat_b[key]:
            diffs.append(f"{key}: {flat_a[key]!r} != {flat_b[key]!r}")
    return diffs
