"""Config-driven ATM construction (``repro.scenarios.generic``)."""

from repro.core import PhantomAlgorithm
from repro.scenarios.generic import build_atm

LOSSY = {
    "switches": ["S1", "S2"],
    "trunks": [{"a": "S1", "b": "S2"}],
    "link_rate": 120.0,
    "sessions": [{"vc": "near", "route": ["S1", "S2"]},
                 {"vc": "far", "route": ["S1", "S2"],
                  "access_delay": 7.4e-4}],
    "rm_loss": 0.02,
    "duration": 0.01,
}


def test_rm_loss_twin_keeps_the_replaced_links_rate_and_delay():
    run = build_atm(LOSSY, algorithm_factory=PhantomAlgorithm, run=False)
    switch = run.net.switches["S1"]
    for vc, delay in (("near", 1e-5), ("far", 7.4e-4)):
        lossy = switch._backward[vc]
        assert lossy.loss_rate == 0.02
        assert lossy.name == f"{vc}.back.lossy"
        assert lossy.propagation == delay
        assert lossy.rate_mbps == 120.0
        assert switch._backward_recv[vc] == lossy.receive
