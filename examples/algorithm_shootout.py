#!/usr/bin/env python
"""Phantom vs the ATM Forum baselines (paper Section 5).

Runs the same two experiments under all four constant-space switch
algorithms — Phantom, EPRCA, APRC, CAPC — and prints the comparison the
paper draws: convergence time, steady fairness, utilisation, and queue
behaviour, on (a) the staggered-start scenario and (b) the on/off
environment of Fig. 4 / Fig. 22.

Run:  python examples/algorithm_shootout.py   (~1 minute)
"""

from repro import (AprcAlgorithm, CapcAlgorithm, EprcaAlgorithm,
                   PhantomAlgorithm)
from repro.analysis import format_table
from repro.scenarios import build_atm, onoff_config, staggered_config

ALGORITHMS = [
    ("Phantom", PhantomAlgorithm),
    ("EPRCA", EprcaAlgorithm),
    ("APRC", AprcAlgorithm),
    ("CAPC", CapcAlgorithm),
]


def staggered_row(name, factory):
    run = build_atm(staggered_config(n_sessions=2, duration=0.4),
                    algorithm_factory=factory)
    queue = run.queue_stats()
    return [name, run.jain(), run.utilization(), queue["max"],
            queue["mean"]]


def onoff_row(name, factory):
    run = build_atm(onoff_config(greedy=1, bursty=2, duration=0.4),
                    algorithm_factory=factory, seed=7)
    rates = run.steady_rates(fraction=0.5)
    queue = run.queue_stats()
    return [name, rates["greedy0"], queue["max"], queue["mean"]]


def main() -> None:
    print("=== two greedy sessions, staggered start (Fig. 2-3 / 19-21) ===")
    rows = []
    for name, factory in ALGORITHMS:
        print(f"  running {name} ...")
        rows.append(staggered_row(name, factory))
    print(format_table(
        ["algorithm", "Jain", "utilisation", "peak queue", "mean queue"],
        rows))

    print()
    print("=== on/off environment (Fig. 4 / Fig. 22) ===")
    rows = []
    for name, factory in ALGORITHMS:
        print(f"  running {name} ...")
        rows.append(onoff_row(name, factory))
    print(format_table(
        ["algorithm", "greedy Mb/s", "peak queue", "mean queue"],
        rows))
    print()
    print("Expected shape (paper): Phantom converges fastest and fairest;")
    print("EPRCA/APRC run deeper queues under threshold congestion; CAPC")
    print("converges more slowly but with a smaller transient queue.")


if __name__ == "__main__":
    main()
