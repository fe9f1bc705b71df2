"""E12 — Selective Source Quench and the EFCI-bit method (paper §4.2,
Fig. 9/11).

The two gentler Section-4 mechanisms on the E09 topology:

* Selective Source Quench: routers send an ICMP quench (the source
  halves its window, as if a packet was dropped [BP87]) instead of
  discarding — control without forward-path loss, at the price of
  reverse-path messages;
* EFCI bit with utilization_factor = 5: non-conformant packets are
  marked, receivers echo the bit, and marked sources "may not increase"
  — no losses at all from the mechanism.
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, rtt_config,
                                 selective_efci_policy,
                                 selective_quench_policy)

DURATION = 25.0


def test_e12_quench_and_efci(run_once, benchmark):
    runs = run_once(lambda: {
        "quench": build_tcp(rtt_config(duration=DURATION),
                            policy_factory=selective_quench_policy()),
        "efci": build_tcp(rtt_config(duration=DURATION),
                          policy_factory=selective_efci_policy()),
    })

    rows = []
    for label, run in runs.items():
        rates = run.goodputs()
        rows.append([label, jain_index(rates.values()),
                     run.total_goodput(), run.queue_stats()["max"]])
    print()
    print(format_table(
        ["mechanism", "Jain", "total Mb/s", "peak queue"], rows))

    quench_port = runs["quench"].bottleneck
    efci_port = runs["efci"].bottleneck
    benchmark.extra_info.update({
        "quenches_sent": quench_port.policy.quenches_sent,
        "efci_marked": efci_port.policy.marked,
        "jain_quench": runs["quench"].jain(),
        "jain_efci": runs["efci"].jain(),
    })

    assert quench_port.policy.quenches_sent > 0
    assert efci_port.policy.marked > 0
    # EFCI itself never drops; any loss is buffer overflow only
    assert efci_port.policy.state_vars() is not None
    for run in runs.values():
        assert run.total_goodput() > 4.0
        assert run.jain() > 0.8
