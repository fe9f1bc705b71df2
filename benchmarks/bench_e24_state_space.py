"""E24 — constant space vs per-VC state (paper Section 1 classification).

The paper sorts switch algorithms into constant-space (Phantom, EPRCA,
APRC, CAPC) and unbounded-space (the OSU/ERICA line and others)
families.  This benchmark quantifies the trade on one scenario: ERICA's
per-VC accounting buys the classic max-min allocation at its target
utilisation, while Phantom gets the phantom-adjusted allocation with two
scalars of state — measured here as the literal ``state_vars()`` size as
the session count grows.
"""

from repro import EprcaAlgorithm, PhantomAlgorithm
from repro.analysis import format_table
from repro.baselines import EricaAlgorithm
from repro.scenarios import build_atm, staggered_config

DURATION = 0.3
SESSION_COUNTS = (2, 8)


def measure(factory, n_sessions):
    run = build_atm(staggered_config(n_sessions=n_sessions, stagger=0.01,
                                     duration=DURATION),
                    algorithm_factory=factory)
    state_size = len(run.bottleneck.algorithm.state_vars())
    return {
        "jain": run.jain(),
        "util": run.utilization(),
        "state": state_size,
    }


def test_e24_state_space(run_once, benchmark):
    algorithms = {
        "phantom": PhantomAlgorithm,
        "eprca": EprcaAlgorithm,
        "erica": EricaAlgorithm,
    }
    results = run_once(lambda: {
        (name, n): measure(factory, n)
        for name, factory in algorithms.items()
        for n in SESSION_COUNTS
    })

    rows = []
    for (name, n), r in results.items():
        rows.append([name, n, r["state"], r["jain"], r["util"]])
    print()
    print(format_table(
        ["algorithm", "sessions", "state vars", "Jain", "utilisation"],
        rows))
    benchmark.extra_info.update({
        f"{name}_{n}_state": r["state"]
        for (name, n), r in results.items()})

    # constant-space claim: Phantom and EPRCA state independent of n
    for name in ("phantom", "eprca"):
        sizes = {results[(name, n)]["state"] for n in SESSION_COUNTS}
        assert len(sizes) == 1
    # ERICA's state grows with the session count
    erica_sizes = [results[("erica", n)]["state"] for n in SESSION_COUNTS]
    assert erica_sizes[1] > erica_sizes[0]
    # all three are fair here; ERICA runs at its higher target utilisation
    for (name, n), r in results.items():
        assert r["jain"] > 0.95, (name, n)
    assert (results[("erica", 8)]["util"]
            > results[("phantom", 8)]["util"] - 0.05)
