"""E15 — APRC (paper Fig. 20-21, §5.1).

APRC replaces EPRCA's queue-length congestion test with a queue-growth
test, plus a 300-cell very-congested threshold [ST94].  The paper's
observation: "in some scenarios the queue length might often exceed the
very congested threshold" — reproduced here with the on/off environment,
where each burst arrival grows the queue through the threshold before
the derivative test can bite.
"""

from repro import AprcAlgorithm
from repro.analysis import print_series
from repro.baselines import AprcParams
from repro.scenarios import build_atm, onoff_config, staggered_config

DURATION = 0.4
VQT = 300


def test_e15_aprc(run_once, benchmark):
    runs = run_once(lambda: {
        "staggered": build_atm(
            staggered_config(n_sessions=2, duration=DURATION),
            algorithm_factory=AprcAlgorithm),
        "onoff": build_atm(
            onoff_config(greedy=1, bursty=2, duration=DURATION),
            algorithm_factory=AprcAlgorithm, seed=7),
    })

    onoff = runs["onoff"]
    print()
    print_series(
        "E15 / Fig.20-21: APRC in the on/off environment",
        {
            "ACR greedy [Mb/s]": onoff.net.sessions["greedy0"].acr_probe,
            "MACR       [Mb/s]": onoff.macr_probe,
            "queue      [cells]": onoff.queue_probe,
        },
        start=0.0, end=DURATION)

    staggered = runs["staggered"]
    benchmark.extra_info.update({
        "staggered_jain": staggered.jain(),
        "staggered_util": staggered.utilization(),
        "onoff_peak_queue": onoff.queue_stats()["max"],
    })

    assert AprcParams().vqt == VQT  # the paper's quoted threshold
    assert staggered.jain() > 0.95
    assert staggered.utilization() > 0.85
    # the paper's observation: bursts push the queue past VQT
    assert onoff.queue_stats()["max"] > VQT
