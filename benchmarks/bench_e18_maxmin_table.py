"""E18 — measured rates vs analytic phantom max-min, across all ATM
configurations (the fairness summary table).

For each configuration the table shows every session's measured steady
goodput next to the phantom-adjusted max-min allocation (scaled by the
31/32 RM-cell overhead) and the RMS relative error.
"""

from repro import PhantomAlgorithm, phantom_allocation
from repro.analysis import allocation_error, format_table
from repro.scenarios import (build_atm, parking_config, rtt_config,
                             staggered_config)

FACTOR = 5.0
RM_OVERHEAD = 31 / 32


def reference_for(config, n_or_hops):
    if config == "parking_lot":
        capacities = {f"t{i}": 150.0 for i in range(n_or_hops)}
        routes = {"long": [f"t{i}" for i in range(n_or_hops)]}
        routes.update({f"cross{i}": [f"t{i}"] for i in range(n_or_hops)})
    else:
        capacities = {"l": 150.0}
        routes = {name: ["l"] for name in n_or_hops}
    return {vc: r * RM_OVERHEAD for vc, r in phantom_allocation(
        capacities, routes, utilization_factor=FACTOR).items()}


def test_e18_maxmin_table(run_once, benchmark):
    configs = {
        "staggered_3": staggered_config(n_sessions=3, stagger=0.02,
                                        duration=0.3),
        "rtt_spread": rtt_config(duration=0.3),
        "parking_lot": parking_config(hops=3, duration=0.3),
    }
    runs = run_once(lambda: {
        name: build_atm(config, algorithm_factory=PhantomAlgorithm)
        for name, config in configs.items()})

    rows = []
    errors = {}
    for config, run in runs.items():
        measured = run.steady_rates()
        if config == "parking_lot":
            reference = reference_for("parking_lot", 3)
        else:
            reference = reference_for("single", list(measured))
        errors[config] = allocation_error(measured, reference)
        for vc in sorted(measured):
            rows.append([config, vc, measured[vc], reference[vc]])
    print()
    print(format_table(
        ["configuration", "session", "measured Mb/s", "reference Mb/s"],
        rows))
    print()
    print(format_table(
        ["configuration", "RMS relative error"],
        [[c, e] for c, e in errors.items()]))
    benchmark.extra_info.update(
        {f"rms_{k}": v for k, v in errors.items()})

    for config, error in errors.items():
        assert error < 0.08, f"{config}: rms error {error:.3f}"
