"""E04 — parking-lot topology: no beat-down (paper Fig. 7-8 analogue).

One long session crosses three Phantom trunks; one cross session rides
each trunk.  Binary schemes beat long paths down [BdJ94]; Phantom must
give the long session the same grant as the cross traffic, matching the
phantom-adjusted max-min allocation computed analytically.
"""

import pytest

from repro import PhantomAlgorithm, phantom_allocation
from repro.analysis import allocation_error, format_table
from repro.scenarios import build_atm, parking_config

HOPS = 3
DURATION = 0.3


def test_e04_parking_lot(run_once, benchmark):
    run = run_once(lambda: build_atm(
        parking_config(hops=HOPS, duration=DURATION),
        algorithm_factory=PhantomAlgorithm))

    measured = run.steady_rates()
    capacities = {f"t{i}": 150.0 for i in range(HOPS)}
    routes = {"long": [f"t{i}" for i in range(HOPS)]}
    routes.update({f"cross{i}": [f"t{i}"] for i in range(HOPS)})
    reference = {vc: rate * 31 / 32 for vc, rate in phantom_allocation(
        capacities, routes, utilization_factor=5.0).items()}

    print()
    print(format_table(
        ["session", "measured Mb/s", "phantom max-min Mb/s"],
        [[vc, measured[vc], reference[vc]] for vc in sorted(measured)]))

    error = allocation_error(measured, reference)
    benchmark.extra_info.update({"rms_error": error,
                                 "long_mbps": measured["long"]})

    assert error < 0.05
    # beat-down check: the long session is not squeezed below cross flows
    assert measured["long"] == pytest.approx(measured["cross0"], rel=0.1)
