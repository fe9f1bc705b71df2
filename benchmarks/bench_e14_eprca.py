"""E14 — EPRCA on the staggered-start scenario (paper Fig. 19 analogue,
§5.1).

Expected shape versus Phantom (E01): EPRCA reaches a fair split but
detects congestion through queue thresholds, so it *operates* at a
standing queue around its threshold and reacts with oscillation; Phantom
holds a near-empty queue in steady state.
"""

from repro import EprcaAlgorithm, PhantomAlgorithm
from repro.analysis import print_series
from repro.scenarios import build_atm, staggered_config

DURATION = 0.4


def test_e14_eprca(run_once, benchmark):
    config = staggered_config(n_sessions=2, duration=DURATION)
    runs = run_once(lambda: {
        "eprca": build_atm(config, algorithm_factory=EprcaAlgorithm),
        "phantom": build_atm(config, algorithm_factory=PhantomAlgorithm),
    })

    eprca = runs["eprca"]
    print()
    print_series(
        "E14 / Fig.19: EPRCA — MACR, rates, queue",
        {
            "ACR s0 [Mb/s]": eprca.net.sessions["s0"].acr_probe,
            "ACR s1 [Mb/s]": eprca.net.sessions["s1"].acr_probe,
            "MACR   [Mb/s]": eprca.macr_probe,
            "queue  [cells]": eprca.queue_probe,
        },
        start=0.0, end=DURATION)

    steady = (0.25, DURATION)
    eprca_queue = eprca.queue_stats(*steady)
    phantom_queue = runs["phantom"].queue_stats(*steady)
    benchmark.extra_info.update({
        "eprca_jain": eprca.jain(),
        "eprca_util": eprca.utilization(),
        "eprca_steady_queue": eprca_queue["mean"],
        "phantom_steady_queue": phantom_queue["mean"],
    })

    assert eprca.jain() > 0.95          # it is fair for equal RTTs...
    assert eprca.utilization() > 0.85
    # ...but it parks the queue near its congestion threshold, far above
    # Phantom's near-empty steady state
    assert eprca_queue["mean"] > 50
    assert eprca_queue["mean"] > 10 * max(phantom_queue["mean"], 1.0)
