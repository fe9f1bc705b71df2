"""Observability layer: structured tracing, metrics, run manifests.

The pieces (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — the :class:`Tracer` event log the engine and
  both protocol stacks emit into, plus the JSONL trace format;
* :mod:`repro.obs.metrics` — the counters/gauges/histograms registry
  the gateway exports as Prometheus text;
* :mod:`repro.obs.manifest` — machine-readable run manifests (seed,
  parameters, git rev, platform, metric summary) and their diffing;
* :mod:`repro.obs.chrome` — Chrome ``trace_event`` conversion so traces
  load in Perfetto / ``about://tracing``;
* :mod:`repro.obs.monitor` / :mod:`repro.obs.health` — invariant
  checks over finished runs (conservation, queue bounds, ε-band
  convergence) folded into per-run **HealthReports** with max-min
  verdicts.

``repro obs`` (see :mod:`repro.obs.cli`) is the command-line entry
point.  Tracing is opt-in and observation-only: with no tracer
installed every emit point is one ``is None`` check, and with one
installed the simulated outcome is bit-identical — the
golden-trace suite asserts both.
"""

import importlib
from typing import TYPE_CHECKING

# Exports resolve on first use (PEP 562), so `repro suite --health`
# loads the health judge without the tracer, manifests or exporters;
# see repro/__init__.py.
if TYPE_CHECKING:
    from repro.obs.chrome import (COUNTER_FIELDS, chrome_events,
                                  chrome_trace, write_chrome_trace)
    from repro.obs.health import (HEALTH_SCHEMA, HEALTH_VERSION,
                                  SUITE_HEALTH_SCHEMA, build_health,
                                  merge_health, oracle_allocation,
                                  validate_health, verdict_of)
    from repro.obs.manifest import (MANIFEST_SCHEMA, MANIFEST_VERSION,
                                    build_manifest, diff_manifests,
                                    git_revision, read_manifest,
                                    validate_manifest, write_manifest)
    from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge,
                                   Histogram, MetricsRegistry)
    from repro.obs.monitor import (DEFAULT_EPS, conservation_check,
                                   convergence_check, fairness_gap_check,
                                   oscillation_check, queue_bound_check,
                                   vandalore_bound)
    from repro.obs.trace import (CATEGORIES, TRACE_SCHEMA, TRACE_VERSION,
                                 Tracer, event_dicts, read_trace_jsonl,
                                 summarize_events, trace_header,
                                 validate_trace_jsonl, write_trace_jsonl)

#: Public name -> the module it is imported from on first use.
_EXPORTS = {name: module for module, names in {
    "repro.obs.chrome": ("COUNTER_FIELDS", "chrome_events", "chrome_trace",
                         "write_chrome_trace"),
    "repro.obs.health": ("HEALTH_SCHEMA", "HEALTH_VERSION",
                         "SUITE_HEALTH_SCHEMA", "build_health",
                         "merge_health", "oracle_allocation",
                         "validate_health", "verdict_of"),
    "repro.obs.manifest": ("MANIFEST_SCHEMA", "MANIFEST_VERSION",
                           "build_manifest", "diff_manifests",
                           "git_revision", "read_manifest",
                           "validate_manifest", "write_manifest"),
    "repro.obs.metrics": ("DEFAULT_BUCKETS", "Counter", "Gauge",
                          "Histogram", "MetricsRegistry"),
    "repro.obs.monitor": ("DEFAULT_EPS", "conservation_check",
                          "convergence_check", "fairness_gap_check",
                          "oscillation_check", "queue_bound_check",
                          "vandalore_bound"),
    "repro.obs.trace": ("CATEGORIES", "TRACE_SCHEMA", "TRACE_VERSION",
                        "Tracer", "event_dicts", "read_trace_jsonl",
                        "summarize_events", "trace_header",
                        "validate_trace_jsonl", "write_trace_jsonl"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
