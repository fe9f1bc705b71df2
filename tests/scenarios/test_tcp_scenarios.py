"""Tests for the TCP configurations (Section 4.3) rendered by build_tcp."""

import pytest

from repro.scenarios.tcp import (build_tcp, drop_tail_policy, many_config,
                                 parking_config, rtt_config,
                                 selective_discard_policy,
                                 selective_efci_policy,
                                 selective_quench_policy,
                                 selective_red_policy, two_way_config)


def test_rtt_fairness_drop_tail_biased():
    run = build_tcp(rtt_config(duration=20.0),
                    policy_factory=drop_tail_policy())
    rates = run.goodputs()
    assert max(rates.values()) / min(rates.values()) > 2.5
    assert run.jain() < 0.9


def test_rtt_fairness_selective_discard_fair():
    run = build_tcp(rtt_config(duration=20.0),
                    policy_factory=selective_discard_policy())
    rates = run.goodputs()
    assert max(rates.values()) / min(rates.values()) < 1.6
    assert run.jain() > 0.95
    assert run.total_goodput() > 5.0


def test_selective_quench_controls_without_heavy_loss():
    run = build_tcp(rtt_config(duration=20.0),
                    policy_factory=selective_quench_policy())
    trunk = run.bottleneck
    assert trunk.policy.quenches_sent > 0
    assert run.total_goodput() > 4.0


def test_selective_efci_scenario():
    run = build_tcp(rtt_config(duration=20.0),
                    policy_factory=selective_efci_policy())
    assert run.bottleneck.policy.marked > 0
    assert run.total_goodput() > 4.0


def test_selective_red_scenario():
    run = build_tcp(rtt_config(duration=20.0),
                    policy_factory=selective_red_policy())
    assert run.total_goodput() > 4.0


def test_parking_lot_drop_tail_beats_down_long_flow():
    run = build_tcp(parking_config(hops=3, duration=20.0),
                    policy_factory=drop_tail_policy())
    rates = run.goodputs()
    crosses = [rates[f"cross{i}"] for i in range(3)]
    assert rates["long"] < min(crosses)
    assert run.bottleneck is run.net.trunk("R1", "R2")


def test_parking_lot_selective_discard_protects_long_flow():
    config = parking_config(hops=3, duration=20.0)
    dt = build_tcp(config, policy_factory=drop_tail_policy())
    sd = build_tcp(config, policy_factory=selective_discard_policy())
    assert sd.goodputs()["long"] > dt.goodputs()["long"]
    assert sd.jain() > dt.jain()


def test_many_flows_split_evenly():
    run = build_tcp(many_config(n_flows=4, duration=20.0),
                    policy_factory=selective_discard_policy())
    assert run.jain() > 0.9


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
