"""Parallel experiment execution with a content-addressed result cache.

The execution layer turns "run the paper's experiments" from a serial
script into a schedulable batch:

* :mod:`repro.exec.spec` — declarative, picklable task specs;
* :mod:`repro.exec.registry` — named, importable scenario entry points
  (:mod:`repro.exec.entries` registers the builtin ones);
* :mod:`repro.exec.pool` — serial/parallel executor with bit-identical
  results at any job count;
* :mod:`repro.exec.fingerprint` / :mod:`repro.exec.cache` — spec+source
  fingerprints addressing an on-disk result cache;
* :mod:`repro.exec.suite` — E01–E26 and parameter sweeps as specs;
* :mod:`repro.exec.cli` — the ``repro suite`` / ``repro sweep``
  commands.

See docs/EXECUTION.md for the design and the determinism argument.
"""

import importlib
from typing import TYPE_CHECKING

# Exports resolve on first use (PEP 562), so a cached replay never loads
# the worker or the pool's process machinery; see repro/__init__.py.
if TYPE_CHECKING:
    from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.exec.fingerprint import (RESULT_VERSION, SourceIndex,
                                        default_index, task_fingerprint)
    from repro.exec.pool import ExecResult, default_jobs, run_tasks
    from repro.exec.registry import (ScenarioEntry, all_scenarios,
                                     get_scenario, register_scenario)
    from repro.exec.spec import TaskSpec, canonical_json, derive_seed
    from repro.exec.suite import (SUITE, experiment_ids, suite_specs,
                                  sweep_specs)
    from repro.exec.worker import execute_task

#: Public name -> the module it is imported from on first use.
_EXPORTS = {name: module for module, names in {
    "repro.exec.cache": ("DEFAULT_CACHE_DIR", "ResultCache"),
    "repro.exec.fingerprint": ("RESULT_VERSION", "SourceIndex",
                               "default_index", "task_fingerprint"),
    "repro.exec.pool": ("ExecResult", "default_jobs", "run_tasks"),
    "repro.exec.registry": ("ScenarioEntry", "all_scenarios",
                            "get_scenario", "register_scenario"),
    "repro.exec.spec": ("TaskSpec", "canonical_json", "derive_seed"),
    "repro.exec.suite": ("SUITE", "experiment_ids", "suite_specs",
                         "sweep_specs"),
    "repro.exec.worker": ("execute_task",),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
