"""Unit and integration tests for APRC."""

import pytest

from repro.atm import AtmNetwork, Cell, OutputPort, RMCell, RMDirection
from repro.baselines import AprcAlgorithm, AprcParams
from repro.sim import Simulator


class NullSink:
    def receive(self, cell):
        pass


def make_alg(sim, params=None):
    alg = AprcAlgorithm(params or AprcParams())
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=NullSink(),
                      algorithm=alg)
    return alg, port


def bwd(ccr, er=150.0):
    return RMCell(vc="A", direction=RMDirection.BACKWARD, ccr=ccr, er=er)


def test_very_congested_threshold_is_the_papers():
    """Paper §5.1: APRC's very-congested threshold is 300 cells, the
    level E15's on/off queue exceeds."""
    assert AprcParams().vqt == 300


def test_congestion_follows_queue_growth_not_length():
    sim = Simulator()
    alg, port = make_alg(sim, AprcParams(sample_interval=1e-4))
    # build a queue, then let it grow between samples
    for i in range(50):
        port.receive(Cell(vc="A", seq=i))
    sim.run(until=1.5e-4)  # one sample: queue grew from 0
    assert alg.congested
    # now stop feeding: the queue drains, next samples see shrinkage
    sim.run(until=5e-4)
    assert not alg.congested


def test_large_but_stable_queue_not_congested():
    sim = Simulator()
    alg, port = make_alg(sim, AprcParams(sample_interval=1e-4, vqt=10_000))
    from repro.sim import units
    ct = units.cell_time(150.0)

    # pre-fill 500 cells, then feed exactly at line rate: length constant
    for i in range(500):
        port.receive(Cell(vc="A", seq=i))

    def feed():
        port.receive(Cell(vc="A"))
        sim.schedule(ct, feed)

    sim.schedule(0.0, feed)
    sim.run(until=2e-3)
    assert port.queue_len >= 490
    assert not alg.congested  # length huge, derivative ~0
    assert not alg.very_congested


def test_very_congested_is_threshold_based():
    sim = Simulator()
    alg, port = make_alg(sim, AprcParams(vqt=100))
    for i in range(150):
        port.receive(Cell(vc="A", seq=i))
    assert alg.very_congested
    rm = bwd(ccr=1.0)
    alg.on_backward_rm(rm)
    assert rm.er == pytest.approx(alg.params.mrf * alg.macr)


def test_macr_average_and_intelligent_marking():
    sim = Simulator()
    alg, port = make_alg(sim, AprcParams(sample_interval=1e-4,
                                         macr_init=40.0))
    # force congested state: queue growing
    for i in range(50):
        port.receive(Cell(vc="A", seq=i))
    sim.run(until=1.5e-4)
    assert alg.congested
    fast, slow = bwd(ccr=50.0), bwd(ccr=30.0)
    alg.on_backward_rm(fast)
    alg.on_backward_rm(slow)
    assert fast.er < 150.0
    assert slow.er == 150.0


def test_state_constant_space():
    sim = Simulator()
    alg, _ = make_alg(sim)
    for i in range(100):
        alg.on_forward_rm(
            RMCell(vc=f"s{i}", direction=RMDirection.FORWARD, ccr=10.0))
    assert set(alg.state_vars()) == {"macr", "prev_queue", "growing"}


@pytest.mark.parametrize("kwargs", [
    {"av": 2.0}, {"vqt": 0}, {"sample_interval": 0.0}, {"macr_init": -1.0},
])
def test_invalid_params(kwargs):
    with pytest.raises(ValueError):
        AprcParams(**kwargs)


def test_aprc_network_shares_bottleneck():
    net = AtmNetwork(algorithm_factory=AprcAlgorithm)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    a = net.add_session("A", route=["S1", "S2"])
    b = net.add_session("B", route=["S1", "S2"], start=0.030)
    net.run(until=0.4)
    rate_a = a.rate_probe.window(0.25, 0.4).mean()
    rate_b = b.rate_probe.window(0.25, 0.4).mean()
    assert rate_a + rate_b > 100.0
    assert min(rate_a, rate_b) > 20.0
