"""E21 — Vegas sensitivity to parameters (paper §4 discussion of [BP95]).

The paper's example: "two sessions using Vegas sharing one router such
that the lower time threshold (α) of the one is larger than the upper
time threshold (β) of the other" — severe unfairness with no balancing
mechanism.  Selective Discard equalises them: the grant is a *rate*, the
same number for both, regardless of source thresholds.
"""

from repro.analysis import format_table, jain_index
from repro.scenarios.tcp import (build_tcp, drop_tail_policy,
                                 selective_discard_policy, vegas_config)

DURATION = 30.0


def test_e21_vegas_thresholds(run_once, benchmark):
    runs = run_once(lambda: {
        "drop-tail": build_tcp(vegas_config(duration=DURATION),
                               policy_factory=drop_tail_policy(200)),
        "selective": build_tcp(
            vegas_config(duration=DURATION),
            policy_factory=selective_discard_policy(buffer_packets=200)),
    })

    rows = []
    for label, run in runs.items():
        rates = run.goodputs()
        rows.append([label, rates["hungry"], rates["modest"],
                     rates["hungry"] / max(rates["modest"], 1e-9),
                     jain_index(rates.values())])
    print()
    print(format_table(
        ["router", "hungry Mb/s", "modest Mb/s", "ratio", "Jain"], rows))

    dt = runs["drop-tail"].goodputs()
    sd = runs["selective"].goodputs()
    benchmark.extra_info.update({
        "droptail_ratio": dt["hungry"] / max(dt["modest"], 1e-9),
        "selective_ratio": sd["hungry"] / max(sd["modest"], 1e-9),
    })

    # the paper's claim: Vegas alone is severely unfair here...
    assert dt["hungry"] / max(dt["modest"], 1e-9) > 2.5
    # ...and the Phantom router mechanism balances it
    assert sd["hungry"] / max(sd["modest"], 1e-9) < 1.3
    assert jain_index(sd.values()) > 0.98
