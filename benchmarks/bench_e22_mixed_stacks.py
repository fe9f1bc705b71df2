"""E22 — heterogeneous source stacks (the abstract's interoperability
claim: the scheme "easily inter-operates with current TCP flow control
mechanisms and thus can be gradually introduced").

Reno, Tahoe and Vegas share one bottleneck.  With drop-tail routers the
split depends on each stack's aggressiveness; with Selective Discard all
three are held to the same rate grant.
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, drop_tail_policy, mixed_config,
                                 selective_discard_policy)

DURATION = 30.0


def test_e22_mixed_stacks(run_once, benchmark):
    runs = run_once(lambda: {
        "drop-tail": build_tcp(mixed_config(duration=DURATION),
                               policy_factory=drop_tail_policy(100)),
        "selective": build_tcp(mixed_config(duration=DURATION),
                               policy_factory=selective_discard_policy()),
    })

    rows = []
    for label, run in runs.items():
        rates = run.goodputs()
        rows.append([label, rates["reno"], rates["tahoe"], rates["vegas"],
                     jain_index(rates.values())])
    print()
    print(format_table(
        ["router", "reno Mb/s", "tahoe Mb/s", "vegas Mb/s", "Jain"], rows))

    jain_dt = runs["drop-tail"].jain()
    jain_sd = runs["selective"].jain()
    benchmark.extra_info.update({"jain_droptail": jain_dt,
                                 "jain_selective": jain_sd})

    # the router mechanism must equalise heterogeneous stacks at least
    # as well as drop-tail leaves them, and to a high absolute standard
    assert jain_sd >= jain_dt - 0.02
    assert jain_sd > 0.9
    assert runs["selective"].total_goodput() > 5.0
