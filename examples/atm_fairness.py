#!/usr/bin/env python
"""Max-min fairness across a parking-lot network.

Builds the paper's multi-hop "beat-down" topology — one long session
crossing every trunk, one cross session per trunk — runs Phantom, and
compares the measured steady rates with the analytic phantom-adjusted
max-min allocation (the allocation Phantom is designed to converge to).

Run:  python examples/atm_fairness.py
"""

from repro import PhantomAlgorithm, phantom_allocation
from repro.analysis import allocation_error, format_table, jain_index
from repro.scenarios import build_atm, parking_config

HOPS = 3
LINK = 150.0
FACTOR = 5.0


def main() -> None:
    run = build_atm(parking_config(hops=HOPS, duration=0.3),
                    algorithm_factory=PhantomAlgorithm)
    measured = run.steady_rates()

    # analytic reference: each trunk carries the long session, one cross
    # session, and one phantom of weight 1/f
    capacities = {f"trunk{i}": LINK for i in range(HOPS)}
    routes = {"long": [f"trunk{i}" for i in range(HOPS)]}
    for i in range(HOPS):
        routes[f"cross{i}"] = [f"trunk{i}"]
    reference = phantom_allocation(capacities, routes,
                                   utilization_factor=FACTOR)

    rm_overhead = 31 / 32  # goodput excludes 1-in-Nrm RM cells
    rows = []
    for vc in sorted(measured):
        rows.append([vc, measured[vc], reference[vc] * rm_overhead])
    print(format_table(["session", "measured Mb/s", "phantom max-min Mb/s"],
                       rows))
    scaled_ref = {vc: reference[vc] * rm_overhead for vc in measured}
    print()
    print(f"Jain index of measured rates : {jain_index(measured.values()):.4f}")
    print(f"RMS error vs reference       : "
          f"{allocation_error(measured, scaled_ref):.3f}")
    print(f"peak queue at first trunk    : {run.queue_stats()['max']:.0f} cells")
    print()
    print("The long session crosses every switch yet gets the same share")
    print("as the single-hop sessions: no beat-down (paper Sections 2, 5).")


if __name__ == "__main__":
    main()
