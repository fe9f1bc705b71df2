"""E03 — RTT-independence of the allocation (paper Fig. 5-6 analogue).

Sessions whose round-trip times differ by two orders of magnitude share
one Phantom link.  Because every backward RM cell is stamped with the
same number (f·MACR), the steady allocation must not depend on RTT —
the property the EPRCA family lacks [CGBS94, JKVG94, CRBdJ94].
"""

import pytest

from repro import PhantomAlgorithm, phantom_equilibrium_rate
from repro.analysis import jain_index, print_series
from repro.scenarios import build_atm, rtt_config

DELAYS = (1e-5, 5e-4, 2e-3)  # 0.01 ms .. 2 ms access propagation
DURATION = 0.3


def test_e03_rtt_fairness(run_once, benchmark):
    run = run_once(lambda: build_atm(
        rtt_config(access_delays=DELAYS, duration=DURATION),
        algorithm_factory=PhantomAlgorithm))

    print()
    print_series(
        "E03 / Fig.5-6: three sessions, RTTs 1:50:200",
        {f"ACR rtt{i} [Mb/s]": run.net.sessions[f"rtt{i}"].acr_probe
         for i in range(len(DELAYS))} | {"queue [cells]": run.queue_probe},
        start=0.0, end=DURATION)

    rates = run.steady_rates()
    expected = phantom_equilibrium_rate(150.0, len(DELAYS), 5.0) * 31 / 32
    benchmark.extra_info.update(
        {f"rate_rtt{i}": rates[f"rtt{i}"] for i in range(len(DELAYS))})
    benchmark.extra_info["jain"] = jain_index(rates.values())

    for rate in rates.values():
        assert rate == pytest.approx(expected, rel=0.15)
    assert jain_index(rates.values()) > 0.99
