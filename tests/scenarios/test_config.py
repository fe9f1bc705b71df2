"""The scenario config's one reading of its network.

``topology(config)`` and ``bottleneck(config)`` are what the judge and
every renderer read, so each tier that renders a config must build
exactly those ports and routes and report that bottleneck: the packet
ATM tier, the fluid tier (configs without CBR/VBR; it builds only the
ports some session crosses) and the TCP tier.
"""

import pytest

from repro.core import PhantomAlgorithm
from repro.fluid.scenarios import build_fluid
from repro.fuzz.gen import generate_batch
from repro.scenarios import atm, tcp
from repro.scenarios.config import bottleneck, topology
from repro.scenarios.generic import build_atm

ATM_CONFIGS = {f"atm.{f.__name__}": f() for f in (
    atm.staggered_config, atm.onoff_config, atm.rtt_config,
    atm.parking_config, atm.transient_config, atm.background_config,
    atm.weighted_config)}
TCP_CONFIGS = {f"tcp.{f.__name__}": f() for f in (
    tcp.rtt_config, tcp.parking_config, tcp.many_config, tcp.vegas_config,
    tcp.mixed_config, tcp.two_way_config)}
GENERATED = {spec.task_id: spec.config for spec in generate_batch(0, 20)}

PACKET = {**ATM_CONFIGS, **GENERATED}
FLUID = {name: config for name, config in PACKET.items()
         if not config.get("cbr") and not config.get("vbr")}


@pytest.mark.parametrize("name", sorted(PACKET))
def test_the_packet_atm_network_is_the_configs_topology(name):
    config = PACKET[name]
    run = build_atm(config, algorithm_factory=PhantomAlgorithm, run=False)
    assert topology(config) == (run.net.capacities(), run.net.routes())
    assert run.bottleneck.name == "->".join(bottleneck(config))


@pytest.mark.parametrize("name", sorted(FLUID))
def test_the_fluid_network_is_the_configs_topology(name):
    config = FLUID[name]
    run = build_fluid(config, run=False)
    capacities, routes = topology(config)
    crossed = {port for path in routes.values() for port in path}
    assert run.net.capacities() == {port: capacities[port]
                                    for port in crossed}
    assert run.net.routes() == routes
    assert run.bottleneck.name == "->".join(bottleneck(config))


@pytest.mark.parametrize("name", sorted(TCP_CONFIGS))
def test_the_tcp_network_is_the_configs_topology(name):
    config = TCP_CONFIGS[name]
    run = tcp.build_tcp(config, policy_factory=tcp.drop_tail_policy(),
                        run=False)
    assert topology(config) == (run.net.capacities(), run.net.routes())
    assert run.bottleneck.name == "->".join(bottleneck(config))


def test_the_batch_covers_both_renderable_shapes():
    assert len(FLUID) < len(PACKET)        # some carry CBR/VBR
    assert len(FLUID) > len(ATM_CONFIGS)   # some generated render too


def test_topology_exports_bidirectional_ports():
    capacities, routes = topology({
        "link_rate": 100.0,
        "trunks": [{"a": "S1", "b": "S2"},
                   {"a": "S2", "b": "S3", "rate": 150.0}],
        "sessions": [{"vc": "s0", "route": ["S1", "S2", "S3"]},
                     {"vc": "s1", "route": ["S3", "S2"]}],
    })
    assert capacities == {"S1->S2": 100.0, "S2->S1": 100.0,
                          "S2->S3": 150.0, "S3->S2": 150.0}
    assert routes == {"s0": ["S1->S2", "S2->S3"], "s1": ["S3->S2"]}


def test_bottleneck_is_the_busiest_port_ties_broken_by_name():
    config = {"trunks": [{"a": "S1", "b": "S2"}, {"a": "S2", "b": "S3"}],
              "sessions": [{"vc": "a", "route": ["S2", "S3"]},
                           {"vc": "b", "route": ["S3", "S2"]},
                           {"vc": "c", "route": ["S1", "S2", "S3"]}]}
    assert bottleneck(config) == ("S2", "S3")
    config["sessions"].pop()
    assert bottleneck(config) == ("S2", "S3")   # "S2->S3" < "S3->S2"
    assert bottleneck(dict(config, bottleneck=["S3", "S2"])) \
        == ("S3", "S2")


# ----------------------------------------------------------------------
# what the TCP tier refuses
# ----------------------------------------------------------------------
_ONE_FLOW = {"switches": ["R1", "R2"], "trunks": [{"a": "R1", "b": "R2"}],
             "sessions": [{"vc": "f0", "route": ["R1", "R2"]}],
             "link_rate": 10.0, "duration": 1.0}


def _with_session(**keys):
    return dict(_ONE_FLOW, sessions=[{**_ONE_FLOW["sessions"][0], **keys}])


@pytest.mark.parametrize("key,config", [
    ("cbr", dict(_ONE_FLOW, cbr=[{"vc": "bg", "route": ["R1", "R2"],
                                  "rate": 1.0}])),
    ("vbr", dict(_ONE_FLOW, vbr=[{"vc": "vb", "route": ["R1", "R2"],
                                  "peak": 1.0, "mean_on": 0.1,
                                  "mean_off": 0.1}])),
    ("rm_loss", dict(_ONE_FLOW, rm_loss=0.01)),
    ("onoff", _with_session(onoff={"on": 0.1, "off": 0.1})),
    ("stop", _with_session(stop=0.5)),
    ("stack", _with_session(stack="cubic")),
])
def test_build_tcp_refuses_what_tcp_flows_cannot_do(key, config):
    with pytest.raises(ValueError) as caught:
        tcp.build_tcp(config, policy_factory=tcp.drop_tail_policy(),
                      run=False)
    message = str(caught.value)
    assert f"'{key}'" in message
    assert "\n" not in message


def test_build_tcp_renders_the_stack_and_its_params():
    from repro.tcp import TcpVegasSource, VegasParams

    run = tcp.build_tcp(tcp.vegas_config(),
                        policy_factory=tcp.drop_tail_policy(), run=False)
    source = run.net.flows["hungry"].source
    assert type(source) is TcpVegasSource
    assert source.params == VegasParams(rate_interval=0.02,
                                        vegas_alpha=8.0, vegas_beta=10.0)
    assert run.net.flows["hungry"].route == ["R1", "R2"]
