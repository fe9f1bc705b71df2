"""E10 — Selective Discard restores fairness (Fig. 14-right, 17-right).

Same two topologies as E09, with the paper's Fig. 18 mechanism in the
routers: data packets whose CR stamp exceeds f·MACR are discarded.
Includes the drop-throttle ablation: the literal drop-everything reading
(drop_gap = 0) versus the single-loss-signal reading (drop_gap = 40 ms)
this reproduction defaults to (see repro.tcp.phantom_router docs).
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, parking_config, rtt_config,
                                 selective_discard_policy)

DURATION = 25.0


def test_e10_selective_discard(run_once, benchmark):
    runs = run_once(lambda: {
        "rtt": build_tcp(rtt_config(duration=DURATION),
                         policy_factory=selective_discard_policy()),
        "lot": build_tcp(parking_config(hops=3, duration=DURATION),
                         policy_factory=selective_discard_policy()),
        "rtt_dropall": build_tcp(
            rtt_config(duration=DURATION),
            policy_factory=selective_discard_policy(drop_gap=0.0)),
    })

    rtt_rates = runs["rtt"].goodputs()
    lot_rates = runs["lot"].goodputs()
    dropall_rates = runs["rtt_dropall"].goodputs()
    print()
    print(format_table(
        ["experiment", "flow", "goodput Mb/s"],
        [["rtt 1:4", f, r] for f, r in sorted(rtt_rates.items())]
        + [["parking lot", f, r] for f, r in sorted(lot_rates.items())]
        + [["rtt 1:4, drop-all", f, r]
           for f, r in sorted(dropall_rates.items())]))

    ratio = max(rtt_rates.values()) / max(min(rtt_rates.values()), 1e-9)
    benchmark.extra_info.update({
        "rtt_ratio": ratio,
        "rtt_jain": jain_index(rtt_rates.values()),
        "long_flow_mbps": lot_rates["long"],
        "selective_drops": runs["rtt"].bottleneck.policy.selective_drops,
    })

    # Fig. 14-right: near-equal split despite 1:4 RTTs
    assert ratio < 1.6
    assert jain_index(rtt_rates.values()) > 0.95
    # Fig. 17-right: the long flow is no longer the runt
    assert lot_rates["long"] > 0.5 * min(
        lot_rates[f"cross{i}"] for i in range(3))
    # phantom headroom: total stays below the line rate
    assert runs["rtt"].total_goodput() < 10.0
    # ablation: the throttled discard must not do worse than drop-all
    assert (jain_index(rtt_rates.values())
            >= jain_index(dropall_rates.values()) - 0.05)
