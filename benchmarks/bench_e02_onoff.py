"""E02 — on/off environment under Phantom (paper Fig. 4).

One greedy session shares the link with bursty on/off sessions.  The
figure shows Phantom re-granting the idle capacity to the greedy session
within a couple of measurement intervals and reclaiming it when the
bursts return, at the cost of a transient queue (the paper: "the larger
value of the queue length in Phantom stems from the faster reaction").
"""

from repro import PhantomAlgorithm, phantom_equilibrium_rate
from repro.analysis import print_series
from repro.scenarios import build_atm, onoff_config

DURATION = 0.4


def test_e02_onoff(run_once, benchmark):
    run = run_once(lambda: build_atm(
        onoff_config(greedy=1, bursty=2, on_time=0.02, off_time=0.02,
                     duration=DURATION),
        algorithm_factory=PhantomAlgorithm, seed=7))

    greedy = run.net.sessions["greedy0"]
    print()
    print_series(
        "E02 / Fig.4: greedy + 2 on/off sessions, Phantom",
        {
            "ACR greedy [Mb/s]": greedy.acr_probe,
            "ACR onoff0 [Mb/s]": run.net.sessions["onoff0"].acr_probe,
            "MACR       [Mb/s]": run.macr_probe,
            "queue      [cells]": run.queue_probe,
        },
        start=0.0, end=DURATION)

    rates = run.steady_rates(fraction=0.5)
    queue = run.queue_stats()
    benchmark.extra_info.update({
        "greedy_mbps": rates["greedy0"],
        "peak_queue": queue["max"],
        "mean_queue": queue["mean"],
    })

    # the greedy session must exploit idle periods: its average exceeds
    # the all-active share, yet never exceeds the single-session grant
    all_active = phantom_equilibrium_rate(150.0, 3, 5.0) * 31 / 32
    alone = phantom_equilibrium_rate(150.0, 1, 5.0)
    assert rates["greedy0"] > all_active * 1.1
    assert rates["greedy0"] < alone
    # bursty sessions still get served when on
    assert rates["onoff0"] > 5.0
    # transient queues occur but stay bounded and drain on average
    assert queue["max"] < 1000
    assert queue["mean"] < 50
