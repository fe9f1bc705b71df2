"""E09 — TCP Reno over drop-tail routers (paper Fig. 14-left, 17-left).

The baseline the paper argues against: greedy Reno flows with unequal
RTTs through unmodified drop-tail routers.  Expected shape: the short-RTT
flow captures most of the bottleneck (Fig. 14-left); in the multi-router
parking lot the long flow is beaten down below every cross flow
(Fig. 17-left).
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, drop_tail_policy,
                                 parking_config, rtt_config)

DURATION = 25.0


def test_e09_reno_droptail(run_once, benchmark):
    runs = run_once(lambda: {
        "rtt": build_tcp(rtt_config(duration=DURATION),
                         policy_factory=drop_tail_policy()),
        "lot": build_tcp(parking_config(hops=3, duration=DURATION),
                         policy_factory=drop_tail_policy()),
    })

    rtt_rates = runs["rtt"].goodputs()
    lot_rates = runs["lot"].goodputs()
    print()
    print(format_table(
        ["experiment", "flow", "goodput Mb/s"],
        [["rtt 1:4", f, r] for f, r in sorted(rtt_rates.items())]
        + [["parking lot", f, r] for f, r in sorted(lot_rates.items())]))

    ratio = max(rtt_rates.values()) / max(min(rtt_rates.values()), 1e-9)
    benchmark.extra_info.update({
        "rtt_ratio": ratio,
        "rtt_jain": jain_index(rtt_rates.values()),
        "long_flow_mbps": lot_rates["long"],
    })

    # Fig. 14-left: heavy RTT bias
    assert ratio > 2.5
    # Fig. 17-left: the long flow is the worst-off flow
    assert lot_rates["long"] < min(
        lot_rates[f"cross{i}"] for i in range(3))
    # the link itself stays busy — unfairness, not under-use, is the issue
    assert runs["rtt"].total_goodput() > 7.0
