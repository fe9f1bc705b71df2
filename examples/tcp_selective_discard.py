#!/usr/bin/env python
"""TCP fairness: drop-tail vs the paper's Selective Discard (Section 4).

Two greedy Reno flows with a 4:1 RTT ratio share a 10 Mb/s bottleneck.
With plain drop-tail routers one flow takes nearly everything.  The
paper (Fig. 14-left) has the short-RTT flow win; in this simulator the
long-RTT flow does (about 1.3 vs 8.0 Mb/s at 30 s), an open gap.  With
Selective Discard — sources stamp their current rate (CR) into the
header and the router drops packets whose CR exceeds
utilization_factor × MACR — the split is nearly even (about 4.9 vs
3.5 Mb/s; Fig. 14-right), with no per-flow state in the router.

Run:  python examples/tcp_selective_discard.py   (~1 minute)
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, drop_tail_policy, rtt_config,
                                 selective_discard_policy)

DURATION = 30.0


def describe(label, run):
    rates = run.goodputs()
    return [
        label,
        rates["rtt0"],
        rates["rtt1"],
        max(rates.values()) / max(min(rates.values()), 1e-9),
        jain_index(rates.values()),
        run.total_goodput(),
    ]


def main() -> None:
    config = rtt_config(duration=DURATION)
    print("simulating drop-tail ...")
    drop_tail = build_tcp(config, policy_factory=drop_tail_policy())
    print("simulating selective discard ...")
    selective = build_tcp(config,
                          policy_factory=selective_discard_policy())

    print()
    print(format_table(
        ["router", "short-RTT Mb/s", "long-RTT Mb/s", "max/min",
         "Jain", "total Mb/s"],
        [describe("drop-tail", drop_tail),
         describe("selective discard", selective)]))
    print()
    trunk = selective.bottleneck
    print(f"selective drops at bottleneck : "
          f"{trunk.policy.selective_drops}")
    print(f"final MACR                    : "
          f"{trunk.policy.phantom.macr:.2f} Mb/s "
          f"(grant = {trunk.policy.phantom.granted_rate:.2f} Mb/s)")
    print()
    print("Selective Discard equalises the flows without touching the")
    print("TCP sources beyond the CR stamp — the paper's incremental-")
    print("deployment story for router-based networks.")


if __name__ == "__main__":
    main()
