"""Tests for the TCP configurations (Section 4.3) rendered by build_tcp.

What the configurations claim is checked on the suite's own results in
tests/test_paper_claims.py; these tests cover their validation and
wiring.
"""

import pytest

from repro.scenarios.tcp import (build_tcp, drop_tail_policy, many_config,
                                 parking_config, two_way_config)


def test_parking_lot_bottleneck_is_the_first_trunk():
    run = build_tcp(parking_config(hops=3, duration=20.0),
                    policy_factory=drop_tail_policy(), run=False)
    assert run.net.flows["long"].route == ["R1", "R2", "R3", "R4"]
    assert run.bottleneck is run.net.trunk("R1", "R2")


def test_builders_validate():
    with pytest.raises(ValueError):
        parking_config(hops=1)
    with pytest.raises(ValueError):
        many_config(n_flows=0)
    with pytest.raises(ValueError):
        two_way_config(flows_per_direction=0)


def test_run_false_defers():
    run = build_tcp(many_config(n_flows=2, duration=1.0),
                    policy_factory=drop_tail_policy(), run=False)
    assert run.net.sim.now == 0.0
    run.net.run(until=1.0)
    assert run.net.sim.now == pytest.approx(1.0)
