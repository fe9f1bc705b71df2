"""E16 — CAPC in the on/off environment (paper Fig. 22, §5.2).

The configuration is analogous to Fig. 4 (E02).  The paper: "CAPC has
longer convergence time while its queue is relatively smaller during
that time.  The larger value of the queue length in Phantom stems from
the faster reaction of Phantom."
"""

import math

from repro import CapcAlgorithm, PhantomAlgorithm
from repro.analysis import print_series
from repro.scenarios import build_atm, onoff_config, staggered_config

DURATION = 0.5


def ramp_time(run, target):
    """Time for the first session's ACR to first reach ``target``."""
    for t, v in run.net.sessions["s0"].acr_probe:
        if v >= target:
            return t
    return math.inf


def test_e16_capc_onoff(run_once, benchmark):
    onoff = onoff_config(greedy=1, bursty=2, duration=DURATION)
    ramp = staggered_config(n_sessions=2, duration=DURATION)
    runs = run_once(lambda: {
        "capc_onoff": build_atm(onoff, algorithm_factory=CapcAlgorithm,
                                seed=7),
        "phantom_onoff": build_atm(onoff,
                                   algorithm_factory=PhantomAlgorithm,
                                   seed=7),
        "capc_ramp": build_atm(ramp, algorithm_factory=CapcAlgorithm),
        "phantom_ramp": build_atm(ramp, algorithm_factory=PhantomAlgorithm),
    })

    capc = runs["capc_onoff"]
    print()
    print_series(
        "E16 / Fig.22: CAPC with on/off sessions",
        {
            "ACR greedy [Mb/s]": capc.net.sessions["greedy0"].acr_probe,
            "ERS (MACR) [Mb/s]": capc.macr_probe,
            "queue      [cells]": capc.queue_probe,
        },
        start=0.0, end=DURATION)

    # convergence claim is about the ramp: time for the first session to
    # first reach 60 Mb/s (below the two-session equilibrium, so the
    # target is reachable whether or not the second session has joined)
    capc_ramp = ramp_time(runs["capc_ramp"], 60.0)
    phantom_ramp = ramp_time(runs["phantom_ramp"], 60.0)
    # queue claim is about the transient: peak during the convergence
    # window of the staggered-start scenario
    capc_transient = runs["capc_ramp"].queue_stats(0.0, 0.2)
    phantom_transient = runs["phantom_ramp"].queue_stats(0.0, 0.2)

    benchmark.extra_info.update({
        "capc_ramp_ms": capc_ramp * 1e3,
        "phantom_ramp_ms": phantom_ramp * 1e3,
        "capc_transient_peak": capc_transient["max"],
        "phantom_transient_peak": phantom_transient["max"],
    })
    print(f"ramp to 60 Mb/s: CAPC {capc_ramp * 1e3:.1f} ms, "
          f"Phantom {phantom_ramp * 1e3:.1f} ms")
    print(f"transient peak queue: CAPC {capc_transient['max']:.0f}, "
          f"Phantom {phantom_transient['max']:.0f} cells")

    # paper Fig. 22 shape: CAPC converges more slowly...
    assert capc_ramp > phantom_ramp
    # ...with a smaller transient queue ("the larger value of the queue
    # length in Phantom stems from the faster reaction of Phantom")
    assert capc_transient["max"] < phantom_transient["max"]
