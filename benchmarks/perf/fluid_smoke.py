"""CI smoke for the repro.fluid tier (the fluid-smoke workflow job).

Two gates, run in-process:

1. **Scale**: a 100k-flow ``many_flows`` configuration must finish a
   fixed one-second horizon inside a generous wall budget.  The fluid
   stepper's cost is per *cohort*, not per flow, so this only fails if
   someone reintroduces per-flow work into the inner loop — the budget
   is sized ~20x above the measured wall time to stay green on slow CI
   runners while still catching an O(flows) regression (which would be
   ~1000x).
2. **Fidelity**: the full packet-vs-fluid validation suite
   (:mod:`repro.fluid.validate`) must pass every committed tolerance,
   including the live RM-loss injection pair.

Named without the ``bench_`` prefix so pytest does not collect it.
Run directly::

    PYTHONPATH=src python benchmarks/perf/fluid_smoke.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fluid import many_flows, validate

#: 100 cohorts x 1000 flows + 100 greedy individuals = 100_100 flows.
COHORTS = 100
FLOWS_PER_COHORT = 1000
GREEDY = 100
HORIZON_S = 1.0
WALL_BUDGET_S = 30.0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"fluid-smoke FAIL: {message}")
    print(f"fluid-smoke ok: {message}", flush=True)


def main() -> int:
    start = time.perf_counter()
    run = many_flows(cohorts=COHORTS, flows_per_cohort=FLOWS_PER_COHORT,
                     greedy=GREEDY, duration=HORIZON_S)
    wall = time.perf_counter() - start

    flows = sum(c.count for c in run.net.cohorts)
    check(flows >= 100_000, f"{flows} flows simulated")
    check(wall < WALL_BUDGET_S,
          f"{HORIZON_S:.1f}s horizon in {wall:.2f}s wall "
          f"({HORIZON_S / wall:.1f}x realtime, budget "
          f"{WALL_BUDGET_S:.0f}s)")
    greedy_rates = [rate for name, rate in run.steady_rates().items()
                    if name.startswith("greedy")]
    check(all(rate > 0.0 for rate in greedy_rates),
          "greedy minority holds a positive share")

    rows = validate.validation_rows()
    failures = validate.failures(rows)
    for line in failures:
        print(f"fluid-smoke tolerance miss: {line}", flush=True)
    check(not failures,
          f"{len(rows)} packet-vs-fluid comparisons inside committed "
          f"tolerances")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
