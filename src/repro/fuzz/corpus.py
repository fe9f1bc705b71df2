"""The committed regression corpus.

Every corpus entry is one JSON file under ``tests/fuzz/corpus/``: a
fully self-describing minimized :class:`~repro.exec.spec.TaskSpec`
(inline config + pinned seed), the judgment it must reproduce, and the
campaign origin that found it.  Tier-1 (``tests/fuzz/test_corpus.py``)
replays every entry on every run, so a scenario that once exposed a bug
— or sat near a property boundary — keeps guarding it.

Entry layout::

    {"schema": "repro.fuzz.corpus", "version": 1,
     "name": "queue-bound-parking-overload",
     "origin": {"root_seed": 0, "task_id": "fuzz-0-0031"},
     "spec": {... TaskSpec.to_dict() ...},
     "expect": {"classification": "pass", "checks": []},
     "notes": "why this entry exists"}

``expect.checks`` lists the violated check names a failing entry must
still fail; for ``pass`` entries it is empty and the replay asserts the
whole judgment stays clean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.exec.pool import run_tasks
from repro.exec.spec import TaskSpec
from repro.fuzz.harness import classify_result

CORPUS_SCHEMA = "repro.fuzz.corpus"
CORPUS_VERSION = 1

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS = Path("tests/fuzz/corpus")


def corpus_dir(root: str | Path | None = None) -> Path:
    """The corpus directory (``root`` overrides the repo-relative
    default — tests and the CLI's ``--corpus-dir`` pass one)."""
    return Path(root) if root is not None else DEFAULT_CORPUS


def validate_entry(entry: Any) -> list[str]:
    """Schema problems with a corpus entry; empty list means valid."""
    problems: list[str] = []
    if not isinstance(entry, dict):
        return ["corpus entry is not an object"]
    if entry.get("schema") != CORPUS_SCHEMA:
        problems.append(f"schema {entry.get('schema')!r}, expected "
                        f"{CORPUS_SCHEMA!r}")
    if entry.get("version") != CORPUS_VERSION:
        problems.append(f"version {entry.get('version')!r}, expected "
                        f"{CORPUS_VERSION}")
    if not entry.get("name"):
        problems.append("missing name")
    spec = entry.get("spec")
    if not isinstance(spec, dict):
        problems.append("spec must be an object")
    else:
        try:
            TaskSpec.from_dict(spec)
        except Exception as exc:
            problems.append(f"spec does not load: {exc}")
    expect = entry.get("expect")
    if not isinstance(expect, dict) \
            or not expect.get("classification"):
        problems.append("expect.classification is required")
    elif not isinstance(expect.get("checks", []), list):
        problems.append("expect.checks must be a list")
    return problems


def write_entry(directory: str | Path, name: str, spec: TaskSpec,
                expect: Mapping[str, Any],
                origin: Mapping[str, Any] | None = None,
                notes: str = "") -> Path:
    """Write one corpus entry; returns the file path."""
    entry = {
        "schema": CORPUS_SCHEMA,
        "version": CORPUS_VERSION,
        "name": name,
        "origin": dict(origin or {}),
        "spec": spec.to_dict(),
        "expect": {"classification": expect.get("classification"),
                   "checks": sorted(expect.get("checks", []))},
        "notes": notes,
    }
    problems = validate_entry(entry)
    if problems:
        raise ValueError("refusing to write invalid corpus entry: "
                         + "; ".join(problems))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_entry(path: str | Path) -> dict[str, Any]:
    """Load and validate one entry (raises on schema problems)."""
    entry = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = validate_entry(entry)
    if problems:
        raise ValueError(f"corpus entry {path}: " + "; ".join(problems))
    return entry


def load_corpus(directory: str | Path | None = None
                ) -> list[tuple[Path, dict[str, Any]]]:
    """All entries in a corpus directory, sorted by file name."""
    found = []
    for path in sorted(corpus_dir(directory).glob("*.json")):
        found.append((path, load_entry(path)))
    return found


def replay_entry(entry: Mapping[str, Any], *, cache=None,
                 timeout: float | None = None,
                 ) -> tuple[bool, dict[str, Any]]:
    """Re-run one entry; ``(still reproduces, fresh judgment)``.

    A failing entry reproduces when the classification matches and
    every expected violated check is still violated; a ``pass`` entry
    reproduces only by staying entirely clean.
    """
    spec = TaskSpec.from_dict(entry["spec"])
    results = run_tasks([spec], jobs=1, cache=cache, timeout=timeout,
                        retries=0)
    judgment = classify_result(results[0])
    expect = entry["expect"]
    ok = (judgment["classification"] == expect["classification"]
          and set(expect.get("checks", []))
          <= set(judgment.get("checks", [])))
    return ok, judgment
