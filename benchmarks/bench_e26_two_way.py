"""E26 — two-way traffic (extension): data and reverse ACKs share queues.

Each trunk direction carries one direction's data plus the other's ACKs
(ACK-compression territory).  The Phantom conformance check must keep
working: ACK bytes count toward the residual but are never discard
candidates, so both directions stay fair and below capacity.
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, drop_tail_policy,
                                 selective_discard_policy, two_way_config)

DURATION = 20.0


def test_e26_two_way(run_once, benchmark):
    runs = run_once(lambda: {
        "drop-tail": build_tcp(two_way_config(duration=DURATION),
                               policy_factory=drop_tail_policy()),
        "selective": build_tcp(two_way_config(duration=DURATION),
                               policy_factory=selective_discard_policy()),
    })

    rows = []
    for label, run in runs.items():
        rates = run.goodputs()
        east = sum(v for k, v in rates.items() if k.startswith("east"))
        west = sum(v for k, v in rates.items() if k.startswith("west"))
        rows.append([label, east, west, jain_index(rates.values()),
                     run.queue_stats()["mean"]])
    print()
    print(format_table(
        ["router", "east Mb/s", "west Mb/s", "Jain", "mean queue"], rows))

    sel = runs["selective"]
    benchmark.extra_info.update({"jain_selective": sel.jain()})

    for run in runs.values():
        rates = run.goodputs()
        east = sum(v for k, v in rates.items() if k.startswith("east"))
        west = sum(v for k, v in rates.items() if k.startswith("west"))
        # directions are symmetric: neither may be starved
        assert east > 0.7 * west and west > 0.7 * east
    assert sel.jain() > 0.95
    # selective discard still leaves the phantom headroom per direction
    sel_rates = sel.goodputs()
    assert sum(v for k, v in sel_rates.items()
               if k.startswith("east")) < 10.0
    # and avoids drop-tail's standing queue
    assert (sel.queue_stats()["mean"]
            < runs["drop-tail"].queue_stats()["mean"])
