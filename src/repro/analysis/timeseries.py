"""Time-series utilities: uniform grids and CSV export.

The probes record irregular event-driven samples; the helpers here turn
them into the uniform grids that external plotting wants.
"""

from __future__ import annotations

import csv
import math
from typing import Mapping, TextIO

from repro.sim import Probe


def uniform_grid(start: float, end: float, samples: int) -> list[float]:
    """``samples`` evenly spaced instants covering [start, end]."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")
    if end <= start:
        raise ValueError(f"need end > start, got {start!r}..{end!r}")
    step = (end - start) / (samples - 1)
    return [start + i * step for i in range(samples)]


def write_csv(out: TextIO, series: Mapping[str, Probe],
              start: float, end: float, samples: int = 500) -> int:
    """Write aligned, resampled series as CSV (``time`` + one column per
    probe).  Returns the number of data rows written.

    This is the export path for users who want to regenerate the paper's
    figures with their own plotting stack.
    """
    if not series:
        raise ValueError("no series given")
    times = uniform_grid(start, end, samples)
    writer = csv.writer(out)
    writer.writerow(["time"] + list(series))
    columns = [probe.resample(times, default=math.nan)
               for probe in series.values()]
    for i, t in enumerate(times):
        writer.writerow([f"{t:.9f}"] + [
            "" if math.isnan(col[i]) else f"{col[i]:.6f}"
            for col in columns])
    return len(times)
