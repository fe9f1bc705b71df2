"""E08 — transient join/leave (paper Fig. 12-13 analogue).

A base session runs throughout; a visitor joins at 100 ms and departs at
250 ms.  The figure of merit is how fast the base session's rate tracks
the changing fair share: down to f·C/(2f+1) on the join, back up to
f·C/(f+1) after the departure.
"""

from repro import PhantomAlgorithm, phantom_equilibrium_rate
from repro.analysis import convergence_time, print_series
from repro.scenarios import build_atm, transient_config

DURATION = 0.4
JOIN, LEAVE = 0.1, 0.25


def test_e08_transient(run_once, benchmark):
    run = run_once(lambda: build_atm(
        transient_config(duration=DURATION, join_at=JOIN, leave_at=LEAVE),
        algorithm_factory=PhantomAlgorithm))

    base = run.net.sessions["base"]
    print()
    print_series(
        "E08 / Fig.12-13: visitor joins at 100 ms, leaves at 250 ms",
        {
            "ACR base    [Mb/s]": base.acr_probe,
            "ACR visitor [Mb/s]": run.net.sessions["visitor"].acr_probe,
            "MACR        [Mb/s]": run.macr_probe,
            "queue       [cells]": run.queue_probe,
        },
        start=0.0, end=DURATION)

    shared = phantom_equilibrium_rate(150.0, 2, 5.0)
    alone = phantom_equilibrium_rate(150.0, 1, 5.0)

    adapt = convergence_time(base.acr_probe.window(JOIN, LEAVE),
                             target=shared, tolerance=0.1) - JOIN
    reclaim = convergence_time(base.acr_probe.window(LEAVE, DURATION),
                               target=alone, tolerance=0.1) - LEAVE
    benchmark.extra_info.update({"adapt_ms": adapt * 1e3,
                                 "reclaim_ms": reclaim * 1e3})
    print(f"adapt to join: {adapt * 1e3:.1f} ms, "
          f"reclaim after leave: {reclaim * 1e3:.1f} ms")

    assert adapt < 0.05
    assert reclaim < 0.08
    assert run.queue_stats()["max"] < 500
