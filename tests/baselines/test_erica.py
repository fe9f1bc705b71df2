"""Unit and integration tests for ERICA (the unbounded-space contrast)."""

import pytest

from repro.atm import AtmNetwork, Cell, OutputPort, RMCell, RMDirection
from repro.baselines import EricaAlgorithm, EricaParams
from repro.sim import Simulator, units


class NullSink:
    def receive(self, cell):
        pass


def make_alg(sim, params=None):
    alg = EricaAlgorithm(params or EricaParams())
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=NullSink(),
                      algorithm=alg)
    return alg, port


def bwd(ccr, er=150.0):
    return RMCell(vc="A", direction=RMDirection.BACKWARD, ccr=ccr, er=er)


def test_fairshare_is_target_over_active_count():
    sim = Simulator()
    alg, port = make_alg(sim, EricaParams(interval=1e-3))
    for vc in ("A", "B", "C"):
        port.receive(Cell(vc=vc))
    sim.run(until=0.0011)
    assert alg.macr == pytest.approx(0.9 * 150.0 / 3)


def test_idle_port_counts_one_active_vc():
    sim = Simulator()
    alg, _ = make_alg(sim)
    sim.run(until=0.0011)
    assert alg.macr == pytest.approx(0.9 * 150.0)  # target / max(0,1)


def test_overload_factor_scales_er_down():
    sim = Simulator()
    alg, port = make_alg(sim, EricaParams(interval=1e-3))
    # offer 2x the target rate from one VC
    cells = int(units.mbps_to_cells_per_sec(270.0) * 1e-3)
    for i in range(cells):
        port.receive(Cell(vc="A", seq=i))
    sim.run(until=0.0011)
    assert alg.overload == pytest.approx(2.0, rel=0.05)
    rm = bwd(ccr=100.0)
    alg.on_backward_rm(rm)
    # max(fairshare=135, 100/2=50) = 135: single VC keeps the whole target
    assert rm.er == pytest.approx(135.0)


def test_er_lifted_to_fairshare_at_full_load():
    sim = Simulator()
    alg, port = make_alg(sim, EricaParams(interval=1e-3))
    # two VCs offering exactly the target rate together: z = 1
    cells = int(units.mbps_to_cells_per_sec(135.0) * 1e-3)
    for i in range(cells):
        port.receive(Cell(vc="A" if i % 2 else "B", seq=i))
    sim.run(until=0.0011)
    assert alg.overload == pytest.approx(1.0, rel=0.05)
    rm = bwd(ccr=1.0, er=150.0)
    alg.on_backward_rm(rm)
    # a slow session is raised to the fair share 135/2 = 67.5
    assert rm.er == pytest.approx(67.5, rel=0.05)


def test_state_grows_with_sessions():
    """The paper's point: ERICA is *not* constant space."""
    sim = Simulator()
    alg, port = make_alg(sim)
    baseline = len(alg.state_vars())
    for i in range(50):
        port.receive(Cell(vc=f"s{i}"))
    assert len(alg.state_vars()) == baseline + 50


@pytest.mark.parametrize("kwargs", [
    {"interval": 0.0}, {"target_utilization": 0.0},
    {"target_utilization": 1.5}, {"fairshare_init": 0.0},
])
def test_invalid_params(kwargs):
    with pytest.raises(ValueError):
        EricaParams(**kwargs)


def test_erica_network_reaches_equal_target_shares():
    net = AtmNetwork(algorithm_factory=EricaAlgorithm)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    a = net.add_session("A", route=["S1", "S2"])
    b = net.add_session("B", route=["S1", "S2"], start=0.03)
    net.run(until=0.3)
    # ERICA aims at target/N = 0.9*150/2 = 67.5 per session
    assert a.source.acr == pytest.approx(67.5, rel=0.1)
    assert b.source.acr == pytest.approx(67.5, rel=0.1)


def test_erica_parking_lot_max_min():
    from repro.scenarios import build_atm, parking_config
    run = build_atm(parking_config(hops=3, duration=0.3),
                    algorithm_factory=EricaAlgorithm)
    rates = run.steady_rates()
    # classic max-min at 90% target: everyone ~0.9*150/2 at the first trunk
    assert rates["long"] == pytest.approx(rates["cross0"], rel=0.15)
