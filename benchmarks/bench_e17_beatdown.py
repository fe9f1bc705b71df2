"""E17 — the beat-down comparison (paper §5 discussion, [BdJ94]).

On the parking-lot topology, schemes that flag congestion with an
indiscriminate binary bit (CAPC above its queue threshold) punish
sessions in proportion to the number of congested switches they cross;
Phantom's grant is the same number for everyone, so path length doesn't
matter.  The benchmark reports the long session's share of a cross
session's rate under each algorithm.
"""

from repro import CapcAlgorithm, EprcaAlgorithm, PhantomAlgorithm
from repro.analysis import format_table
from repro.scenarios import build_atm, parking_config

DURATION = 0.4
HOPS = 4


def long_share(run):
    rates = run.steady_rates()
    cross = min(rates[f"cross{i}"] for i in range(HOPS))
    return rates["long"] / cross if cross > 0 else 0.0


def test_e17_beatdown(run_once, benchmark):
    config = parking_config(hops=HOPS, duration=DURATION)
    runs = run_once(lambda: {
        name: build_atm(config, algorithm_factory=factory)
        for name, factory in (("phantom", PhantomAlgorithm),
                              ("eprca", EprcaAlgorithm),
                              ("capc", CapcAlgorithm))})

    shares = {name: long_share(run) for name, run in runs.items()}
    print()
    print(format_table(
        ["algorithm", "long/cross rate ratio"],
        [[name, share] for name, share in shares.items()]))
    benchmark.extra_info.update(
        {f"share_{k}": v for k, v in shares.items()})

    # Phantom: no beat-down — the long session matches the cross traffic
    assert shares["phantom"] > 0.85
    # Phantom protects the long path at least as well as both baselines
    assert shares["phantom"] >= shares["eprca"] - 0.05
    assert shares["phantom"] >= shares["capc"] - 0.05
