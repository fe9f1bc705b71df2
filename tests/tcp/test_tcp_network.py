"""Integration tests: Reno flows over simulated router networks.

These reproduce the paper's Section-4 claims in miniature: drop-tail
routers are RTT-biased; the Phantom mechanisms restore fairness.
"""

import random

import pytest

from repro.core import PhantomParams
from repro.scenarios.tcp import (build_tcp, rtt_config,
                                 selective_quench_policy,
                                 selective_red_policy)
from repro.tcp import (DropTail, Red, RenoParams, SelectiveDiscard,
                       SelectiveEfci, TcpNetwork)

#: MACR parameters calibrated for router timescales (50 ms interval to
#: match TCP's CR measurement; gentler decrease gain than the ATM loop;
#: no grant floor — see repro.scenarios.tcp.TCP_PHANTOM_PARAMS).
TCP_PHANTOM = PhantomParams(interval=0.05, alpha_inc=0.25, alpha_dec=0.125,
                            grant_floor_fraction=0.0)

RENO = RenoParams(rate_interval=0.02)


def two_flow_net(policy_factory, delay_a=1e-3, delay_b=4e-3):
    net = TcpNetwork(policy_factory=policy_factory, trunk_rate=10.0)
    net.add_router("R1")
    net.add_router("R2")
    net.connect("R1", "R2")
    a = net.add_flow("A", route=["R1", "R2"], access_delay=delay_a,
                     params=RENO)
    b = net.add_flow("B", route=["R1", "R2"], access_delay=delay_b,
                     params=RENO)
    return net, a, b


def goodput(flow, seconds):
    return flow.sink.bytes_received * 8 / seconds / 1e6


def test_single_flow_fills_drop_tail_link():
    net = TcpNetwork(policy_factory=lambda: DropTail(50), trunk_rate=10.0)
    net.add_router("R1")
    net.add_router("R2")
    net.connect("R1", "R2")
    flow = net.add_flow("A", route=["R1", "R2"], params=RENO)
    net.run(until=10.0)
    assert goodput(flow, 10.0) > 8.0  # ~payload share of 10 Mb/s


def test_drop_tail_equal_rtt_is_fair():
    net, a, b = two_flow_net(lambda: DropTail(100), 1e-3, 1e-3)
    net.run(until=20.0)
    ga, gb = goodput(a, 20.0), goodput(b, 20.0)
    assert ga == pytest.approx(gb, rel=0.2)


def test_drop_tail_rtt_bias():
    """Paper Fig. 14-left: the long-RTT flow is starved."""
    net, a, b = two_flow_net(lambda: DropTail(100))
    net.run(until=30.0)
    ga, gb = goodput(a, 30.0), goodput(b, 30.0)
    assert max(ga, gb) / min(ga, gb) > 3.0


def test_selective_discard_removes_rtt_bias():
    """Paper Fig. 14-right: Selective Discard restores fairness."""
    net, a, b = two_flow_net(
        lambda: SelectiveDiscard(buffer_packets=100, params=TCP_PHANTOM,
                                 drop_gap=0.04))
    net.run(until=30.0)
    ga, gb = goodput(a, 30.0), goodput(b, 30.0)
    assert max(ga, gb) / min(ga, gb) < 1.5
    # and the link stays well utilised
    assert ga + gb > 6.0


def test_selective_discard_leaves_phantom_headroom():
    net, a, b = two_flow_net(
        lambda: SelectiveDiscard(buffer_packets=100, params=TCP_PHANTOM,
                                 drop_gap=0.04))
    net.run(until=30.0)
    total = goodput(a, 30.0) + goodput(b, 30.0)
    assert total < 10.0  # never 100%: the phantom's share stays free


def test_selective_efci_no_losses_from_mechanism():
    """EFCI marking controls rates without dropping anything."""
    net, a, b = two_flow_net(
        lambda: SelectiveEfci(buffer_packets=400, params=TCP_PHANTOM))
    net.run(until=20.0)
    trunk = net.trunk("R1", "R2")
    assert trunk.policy.marked > 0
    assert trunk.drops == 0
    assert goodput(a, 20.0) + goodput(b, 20.0) > 5.0


def test_selective_quench_sends_quenches_on_the_rtt_config():
    """Paper §4.2 (E12): the quench router controls the E09 topology by
    messages, which no suite metric counts."""
    run = build_tcp(rtt_config(duration=20.0),
                    policy_factory=selective_quench_policy())
    assert run.bottleneck.policy.quenches_sent > 0


def test_selective_red_is_no_less_fair_than_red():
    """Paper §4.2 (E13): Selective RED admits only non-conformant packets
    as early-drop candidates, so it is at least as fair as plain RED,
    which no registry policy runs."""
    config = rtt_config(duration=25.0)
    red = build_tcp(config, policy_factory=lambda: Red(
        min_th=5, max_th=15, max_p=0.05, wq=0.002, buffer_packets=100,
        rng=random.Random(42)))
    selective = build_tcp(config, policy_factory=selective_red_policy(
        min_th=5, max_th=15, max_p=0.05, rng=random.Random(42)))
    assert selective.jain() >= red.jain() - 0.02
    assert red.total_goodput() > 4.0
    assert selective.total_goodput() > 4.0


def test_multi_router_path():
    """Three-hop parking lot wiring works end to end."""
    net = TcpNetwork(policy_factory=lambda: DropTail(100), trunk_rate=10.0)
    for name in ("R1", "R2", "R3"):
        net.add_router(name)
    net.connect("R1", "R2")
    net.connect("R2", "R3")
    long = net.add_flow("long", route=["R1", "R2", "R3"], params=RENO)
    short = net.add_flow("short", route=["R2", "R3"], params=RENO)
    net.run(until=10.0)
    assert long.sink.bytes_received > 0
    assert short.sink.bytes_received > 0


def test_duplicate_names_rejected():
    net = TcpNetwork()
    net.add_router("R1")
    with pytest.raises(ValueError):
        net.add_router("R1")
    net.add_router("R2")
    net.connect("R1", "R2")
    with pytest.raises(ValueError):
        net.connect("R1", "R2")
    net.add_flow("a", route=["R1", "R2"])
    with pytest.raises(ValueError):
        net.add_flow("a", route=["R1", "R2"])
    with pytest.raises(ValueError):
        net.add_flow("b", route=[])


def test_goodput_meter():
    net = TcpNetwork(policy_factory=lambda: DropTail(50), trunk_rate=10.0,
                     meter_interval=0.5)
    net.add_router("R1")
    net.add_router("R2")
    net.connect("R1", "R2")
    flow = net.add_flow("A", route=["R1", "R2"], params=RENO)
    net.run(until=10.0)
    tail = flow.goodput_probe.window(5.0, 10.0)
    assert tail.mean() > 7.0
