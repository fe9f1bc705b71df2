"""Performance harness: perf workloads, golden traces, and the runner.

Three pieces, one contract:

* :mod:`repro.perf.workloads` — the named hot-path configurations
  (E01/E02/E11-shaped) every measurement runs on;
* :mod:`repro.perf.runner` — wall-clock measurement, ``BENCH_perf.json``
  reports, and the CI regression check;
* :mod:`repro.perf.golden` — golden-trace capture proving that kernel
  optimisations leave simulated outcomes bit-identical.

``repro perf`` (see :mod:`repro.cli`) is the command-line entry point.
"""

from repro.perf.golden import (canonical_series, capture, compare_traces,
                               probe_digest, read_trace, trace_from_run,
                               write_trace)
from repro.perf.runner import (DEFAULT_HISTORY, DEFAULT_OUTPUT,
                               DEFAULT_REGRESSION_FACTOR,
                               HISTORY_WARN_FACTOR, append_history,
                               check_regression, environment_mismatches,
                               history_drift, history_entry, measure,
                               merge_report, read_history, read_report,
                               run_suite, write_report)
from repro.perf.workloads import MIN_SCALE, WORKLOADS, Workload

__all__ = [
    "MIN_SCALE",
    "WORKLOADS",
    "Workload",
    "DEFAULT_HISTORY",
    "DEFAULT_OUTPUT",
    "DEFAULT_REGRESSION_FACTOR",
    "HISTORY_WARN_FACTOR",
    "append_history",
    "canonical_series",
    "capture",
    "check_regression",
    "compare_traces",
    "environment_mismatches",
    "history_drift",
    "history_entry",
    "measure",
    "merge_report",
    "probe_digest",
    "read_history",
    "read_report",
    "read_trace",
    "run_suite",
    "trace_from_run",
    "write_report",
    "write_trace",
]
