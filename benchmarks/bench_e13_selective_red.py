"""E13 — Selective RED vs plain RED (paper §4.2).

RED drops early by queue average, blind to who is above fair share;
Selective RED admits only packets whose CR exceeds f·MACR as drop
candidates.  Expected shape: comparable queue control, better fairness
under heterogeneous RTTs.
"""

import random

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import build_tcp, rtt_config, selective_red_policy
from repro.tcp import Red

DURATION = 25.0


def red_policy():
    return lambda: Red(min_th=5, max_th=15, max_p=0.05, wq=0.002,
                       buffer_packets=100, rng=random.Random(42))


def test_e13_selective_red(run_once, benchmark):
    runs = run_once(lambda: {
        "red": build_tcp(rtt_config(duration=DURATION),
                         policy_factory=red_policy()),
        "selective-red": build_tcp(
            rtt_config(duration=DURATION),
            policy_factory=selective_red_policy(
                min_th=5, max_th=15, max_p=0.05, rng=random.Random(42))),
    })

    rows = []
    for label, run in runs.items():
        rates = run.goodputs()
        rows.append([label, jain_index(rates.values()),
                     run.total_goodput(), run.queue_stats()["mean"]])
    print()
    print(format_table(
        ["policy", "Jain", "total Mb/s", "mean queue"], rows))

    benchmark.extra_info.update({
        "jain_red": runs["red"].jain(),
        "jain_selective_red": runs["selective-red"].jain(),
    })

    # selective RED must improve (or at least not worsen) fairness
    assert (runs["selective-red"].jain() >= runs["red"].jain() - 0.02)
    for run in runs.values():
        assert run.total_goodput() > 4.0
