"""Tests for priority queueing and CBR/VBR background traffic."""

import pytest

from repro.atm import AtmNetwork, BackgroundSink, Cell, CbrSource, OutputPort
from repro.core import PhantomAlgorithm, phantom_equilibrium_rate
from repro.sim import Simulator, units

from tests.atm.test_link import Collector


# ----------------------------------------------------------------------
# priority queueing at ports
# ----------------------------------------------------------------------

def test_priority_zero_served_first():
    sim = Simulator()
    sink = Collector(sim)
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=sink)
    # one ABR cell already transmitting, then queue: abr, cbr
    port.receive(Cell(vc="abr", seq=0))
    port.receive(Cell(vc="abr", seq=1))
    port.receive(Cell(vc="cbr", seq=0, priority=0))
    sim.run()
    order = [(c.vc, c.seq) for _, c in sink.deliveries]
    # seq0 abr was in service; the CBR cell overtakes the queued ABR cell
    assert order == [("abr", 0), ("cbr", 0), ("abr", 1)]


def test_abr_queue_probe_counts_only_abr():
    sim = Simulator()
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=Collector(sim))
    for i in range(3):
        port.receive(Cell(vc="cbr", seq=i, priority=0))
    port.receive(Cell(vc="abr", seq=0))
    assert port.queue_len == 4
    assert port.abr_queue_len == 1


def test_shared_buffer_bound():
    sim = Simulator()
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=Collector(sim),
                      buffer_cells=2)
    port.receive(Cell(vc="cbr", seq=0, priority=0))
    port.receive(Cell(vc="abr", seq=0))
    port.receive(Cell(vc="abr", seq=1))
    assert port.drops == 1


# ----------------------------------------------------------------------
# background sources
# ----------------------------------------------------------------------

def test_cbr_source_paces_at_rate():
    sim = Simulator()
    sink = Collector(sim)
    src = CbrSource(sim, "bg", rate_mbps=50.0)
    src.attach_link(sink)
    src.start()
    sim.run(until=0.01)
    expected = units.mbps_to_cells_per_sec(50.0) * 0.01
    assert len(sink.deliveries) == pytest.approx(expected, abs=2)
    assert all(c.priority == 0 for _, c in sink.deliveries)


def test_cbr_source_start_stop():
    sim = Simulator()
    sink = Collector(sim)
    src = CbrSource(sim, "bg", rate_mbps=50.0, start=0.005, stop=0.01)
    src.attach_link(sink)
    src.start()
    sim.run(until=0.02)
    times = [t for t, _ in sink.deliveries]
    assert min(times) >= 0.005
    assert max(times) <= 0.0101


def test_cbr_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CbrSource(sim, "bg", rate_mbps=0.0)
    with pytest.raises(ValueError):
        CbrSource(sim, "bg", rate_mbps=1.0, start=1.0, stop=0.5)
    src = CbrSource(sim, "bg", rate_mbps=1.0)
    with pytest.raises(RuntimeError):
        src.start()


def test_vbr_mean_load_roughly_half_of_peak():
    net_sim = Simulator()
    sink = Collector(net_sim)
    from repro.atm import VbrSource
    import random
    src = VbrSource(net_sim, "bg", peak_mbps=100.0, mean_on=0.01,
                    mean_off=0.01, rng=random.Random(1))
    src.attach_link(sink)
    src.start()
    net_sim.run(until=1.0)
    delivered_mbps = units.cells_per_sec_to_mbps(len(sink.deliveries) / 1.0)
    assert delivered_mbps == pytest.approx(50.0, rel=0.3)


# ----------------------------------------------------------------------
# network integration: Phantom re-grants what CBR takes/leaves
# ----------------------------------------------------------------------

def cbr_network(cbr_rate, cbr_start, cbr_stop=None):
    net = AtmNetwork(algorithm_factory=PhantomAlgorithm)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    a = net.add_session("A", route=["S1", "S2"])
    b = net.add_session("B", route=["S1", "S2"])
    net.add_cbr("bg", route=["S1", "S2"], rate_mbps=cbr_rate,
                start=cbr_start, stop=cbr_stop)
    return net, a, b


def test_abr_sessions_yield_to_cbr():
    net, a, b = cbr_network(cbr_rate=60.0, cbr_start=0.0)
    net.run(until=0.3)
    # residual capacity is 90: each session gets f*90/(2f+1) ~ 40.9
    expected = 5.0 * 90.0 / 11.0
    assert a.source.acr == pytest.approx(expected, rel=0.15)
    assert b.source.acr == pytest.approx(expected, rel=0.15)
    # the CBR stream itself is untouched
    bg_source, bg_sink = net.background["bg"]
    assert bg_sink.cells_received == pytest.approx(
        bg_source.cells_sent, abs=20)


def test_abr_reclaims_when_cbr_stops():
    net, a, b = cbr_network(cbr_rate=60.0, cbr_start=0.0, cbr_stop=0.15)
    net.run(until=0.4)
    expected = phantom_equilibrium_rate(150.0, 2, 5.0)
    assert a.source.acr == pytest.approx(expected, rel=0.15)


def test_abr_backs_off_when_cbr_joins():
    net, a, b = cbr_network(cbr_rate=60.0, cbr_start=0.15)
    net.run(until=0.14)
    full = phantom_equilibrium_rate(150.0, 2, 5.0)
    assert a.source.acr == pytest.approx(full, rel=0.15)
    net.run(until=0.4)
    reduced = 5.0 * 90.0 / 11.0
    assert a.source.acr == pytest.approx(reduced, rel=0.15)


def test_background_wiring_validation():
    net = AtmNetwork()
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    net.add_cbr("bg", route=["S1", "S2"], rate_mbps=10.0)
    with pytest.raises(ValueError):
        net.add_cbr("bg", route=["S1", "S2"], rate_mbps=10.0)
    with pytest.raises(ValueError):
        net.add_vbr("bg2", route=[], peak_mbps=10.0, mean_on=0.1,
                    mean_off=0.1)


def test_background_sink_validates_vc():
    sink = BackgroundSink("bg")
    with pytest.raises(ValueError):
        sink.receive(Cell(vc="other"))


def test_abr_series_shares_storage_until_the_first_guaranteed_cell():
    sim = Simulator()
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=Collector(sim))
    ct = port.cell_time
    port.receive(Cell(vc="abr", seq=0))
    port.receive(Cell(vc="abr", seq=1))
    sim.run(until=1.5 * ct)
    # single-class so far: one series under both names
    assert port.abr_queue_probe.times is port.queue_probe.times
    assert port.abr_queue_probe.values is port.queue_probe.values
    assert port.abr_queue_len == port.queue_len == 1
    port.receive(Cell(vc="cbr", seq=0, priority=0))
    assert port.abr_queue_probe.times is not port.queue_probe.times
    sim.run()
    # a1 was chosen for service at ct, before c0 arrived; c0 follows
    assert list(port.queue_probe.times) == [0.0, ct, 1.5 * ct, 2 * ct,
                                            3 * ct]
    assert list(port.queue_probe.values) == [2, 1, 2, 1, 0]
    assert list(port.abr_queue_probe.times) == [0.0, ct, 2 * ct]
    assert list(port.abr_queue_probe.values) == [2, 1, 0]
    assert port.abr_queue_len == port.queue_len == 0


def test_first_arrival_guaranteed_starts_the_abr_series_at_zero():
    sim = Simulator()
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=Collector(sim))
    port.receive(Cell(vc="cbr", seq=0, priority=0))
    assert list(port.queue_probe.values) == [1]
    assert list(port.abr_queue_probe.values) == [0]
