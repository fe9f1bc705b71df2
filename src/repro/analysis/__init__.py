"""Measurement analysis: fairness, convergence, utilisation, reporting."""

from repro.analysis.metrics import (allocation_error, convergence_time,
                                    jain_index, max_min_ratio, queue_stats,
                                    utilization)
from repro.analysis.report import (format_table, print_series, series_block,
                                   sparkline)
from repro.analysis.timeseries import uniform_grid, write_csv

__all__ = [
    "allocation_error",
    "convergence_time",
    "jain_index",
    "max_min_ratio",
    "queue_stats",
    "utilization",
    "format_table",
    "print_series",
    "series_block",
    "sparkline",
    "uniform_grid",
    "write_csv",
]
