"""E11 — many Reno flows through one bottleneck (paper Fig. 15-16
analogue): goodput split and queue, drop-tail vs Selective Discard.
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, drop_tail_policy, many_config,
                                 selective_discard_policy)

DURATION = 25.0
N_FLOWS = 4


def test_e11_tcp_bottleneck(run_once, benchmark):
    runs = run_once(lambda: {
        "drop-tail": build_tcp(many_config(n_flows=N_FLOWS,
                                           duration=DURATION),
                               policy_factory=drop_tail_policy()),
        "selective": build_tcp(many_config(n_flows=N_FLOWS,
                                           duration=DURATION),
                               policy_factory=selective_discard_policy()),
    })

    rows = []
    for label, run in runs.items():
        rates = run.goodputs()
        rows.append([label, jain_index(rates.values()),
                     run.total_goodput(), run.queue_stats()["max"],
                     run.queue_stats()["mean"]])
    print()
    print(format_table(
        ["router", "Jain", "total Mb/s", "peak queue", "mean queue"],
        rows))

    sel = runs["selective"]
    dt = runs["drop-tail"]
    benchmark.extra_info.update({
        "jain_selective": sel.jain(),
        "jain_droptail": dt.jain(),
        "queue_mean_selective": sel.queue_stats()["mean"],
        "queue_mean_droptail": dt.queue_stats()["mean"],
    })

    # equal-RTT flows: both policies split evenly...
    assert sel.jain() > 0.9
    # ...but Selective Discard avoids congestion: the standing queue of
    # the drop-tail router (which TCP fills by design) largely vanishes
    assert sel.queue_stats()["mean"] < dt.queue_stats()["mean"]
    assert sel.total_goodput() > 6.0
