"""E01 — two greedy sessions, staggered start (paper Fig. 2-3).

Regenerates the paper's introductory figure triptych: per-session allowed
rate, MACR, and bottleneck queue length over time, for two sessions that
join a 150 Mb/s Phantom-controlled link 30 ms apart.

Expected shape: the first session converges to the single-session share
f·C/(f+1) = 125 Mb/s; after the second joins, both converge within a few
tens of ms onto f·C/(2f+1) ≈ 68.2 Mb/s; the queue spikes briefly at the
join and then drains to near zero.
"""

import pytest

from repro import PhantomAlgorithm, phantom_equilibrium_rate
from repro.analysis import convergence_time, print_series
from repro.scenarios import build_atm, staggered_config

DURATION = 0.25
STAGGER = 0.03


def test_e01_two_sessions(run_once, benchmark):
    run = run_once(lambda: build_atm(
        staggered_config(n_sessions=2, stagger=STAGGER, duration=DURATION),
        algorithm_factory=PhantomAlgorithm))

    a = run.net.sessions["s0"]
    b = run.net.sessions["s1"]
    print()
    print_series(
        "E01 / Fig.2-3: two sessions on one Phantom link",
        {
            "ACR s0 [Mb/s]": a.acr_probe,
            "ACR s1 [Mb/s]": b.acr_probe,
            "MACR   [Mb/s]": run.macr_probe,
            "queue  [cells]": run.queue_probe,
        },
        start=0.0, end=DURATION)

    shared = phantom_equilibrium_rate(150.0, 2, 5.0)
    alone = phantom_equilibrium_rate(150.0, 1, 5.0)
    settle = convergence_time(a.acr_probe.window(STAGGER, DURATION),
                              target=shared, tolerance=0.1)
    queue = run.queue_stats()

    benchmark.extra_info.update({
        "acr_s0_final": a.source.acr,
        "acr_s1_final": b.source.acr,
        "settle_after_join_ms": (settle - STAGGER) * 1e3,
        "peak_queue_cells": queue["max"],
    })

    # paper claims: fast convergence to the fair share, moderate queue
    assert a.acr_probe.value_at(STAGGER - 0.001) == pytest.approx(
        alone, rel=0.15)
    assert a.source.acr == pytest.approx(shared, rel=0.1)
    assert b.source.acr == pytest.approx(shared, rel=0.1)
    assert settle - STAGGER < 0.05          # settles < 50 ms after join
    assert queue["max"] < 500               # moderate transient queue
    assert run.queue_stats(0.2, DURATION)["mean"] < 50
