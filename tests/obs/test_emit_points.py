"""Integration tests for the simulator's trace emit points.

These drive real scenarios with a live :class:`Tracer` and assert the
wired-in emit sites actually fire — the complement of the golden-trace
test, which asserts they change nothing.
"""

import pytest

from repro.atm import Cell, OutputPort
from repro.core import PhantomAlgorithm
from repro.obs import Tracer
from repro.scenarios import build_atm, staggered_config
from repro.scenarios.tcp import build_tcp, drop_tail_policy, many_config
from repro.sim import Simulator

from tests.atm.test_link import Collector


@pytest.fixture(scope="module")
def atm_trace():
    tracer = Tracer()
    build_atm(staggered_config(n_sessions=2, duration=0.1),
              algorithm_factory=PhantomAlgorithm, tracer=tracer)
    return tracer


@pytest.fixture(scope="module")
def tcp_trace():
    tracer = Tracer()
    # a small drop-tail buffer forces drops, dupacks and recoveries
    build_tcp(many_config(n_flows=4, duration=4.0),
              policy_factory=drop_tail_policy(buffer_packets=20),
              tracer=tracer)
    return tracer


def test_atm_run_hits_every_atm_emit_point(atm_trace):
    kinds = atm_trace.kinds()
    for kind in ("engine.schedule", "engine.event", "port.enqueue",
                 "switch.mark", "macr.update"):
        assert kinds[kind] > 0, kind


def test_atm_trace_timestamps_never_decrease(atm_trace):
    times = [ts for ts, _kind, _comp, _fields in atm_trace.events]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_macr_updates_carry_filter_state(atm_trace):
    macr_events = [e for e in atm_trace.events if e[1] == "macr.update"]
    for _ts, _kind, comp, fields in macr_events:
        assert set(fields) == {"macr", "residual", "dev"}
        # residual capacity goes negative under overload; the MACR
        # estimate itself stays a rate
        assert fields["macr"] >= 0


def test_switch_marks_record_er_rewrite(atm_trace):
    marks = [e for e in atm_trace.events if e[1] == "switch.mark"]
    assert marks
    for _ts, _kind, _comp, fields in marks:
        # Phantom only ever reduces the advertised ER
        assert fields["er_out"] <= fields["er_in"]


def test_tcp_run_hits_router_and_reno_emit_points(tcp_trace):
    kinds = tcp_trace.kinds()
    assert kinds["router.drop"] > 0
    assert kinds["tcp.fast_retransmit"] > 0
    assert kinds["tcp.recovery_exit"] > 0


def test_router_drops_name_flow_and_policy(tcp_trace):
    drops = [e for e in tcp_trace.events if e[1] == "router.drop"]
    for _ts, _kind, _comp, fields in drops:
        assert set(fields) == {"flow", "policy", "qlen", "drops"}
        assert fields["policy"] == "drop-tail"


def test_category_filter_drops_other_emitters():
    tracer = Tracer(categories=["macr"])
    build_atm(staggered_config(n_sessions=2, duration=0.05),
              algorithm_factory=PhantomAlgorithm, tracer=tracer)
    kinds = tracer.kinds()
    assert kinds["macr.update"] > 0
    assert set(kinds) == {"macr.update"}


# ----------------------------------------------------------------------
# unit-level: OutputPort enqueue/drop emission
# ----------------------------------------------------------------------

def overloaded_port(tracer):
    sim = Simulator()
    sim.tracer = tracer
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=Collector(sim),
                      buffer_cells=2)
    for i in range(6):
        port.receive(Cell(vc="A", seq=i))
    sim.run()
    return port


def test_port_emits_enqueues_and_drops():
    tracer = Tracer()
    port = overloaded_port(tracer)
    kinds = tracer.kinds()
    assert port.drops > 0
    assert kinds["port.drop"] == port.drops
    assert kinds["port.enqueue"] == port.arrivals - port.drops
    drop = next(e for e in tracer.events if e[1] == "port.drop")
    assert drop[3]["vc"] == "A"
    assert drop[3]["qlen"] == port.buffer_cells


def test_disabled_port_category_emits_nothing():
    tracer = Tracer(categories=["switch"])
    port = overloaded_port(tracer)
    assert port.drops > 0  # the run itself is unchanged
    assert len(tracer) == 0
