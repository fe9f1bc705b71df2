"""Absorbed deliveries: a lossless link into a counting sink schedules no
heap entry inside an unbounded run, and every observation point still
sees the evented kernel.

The evented reference is the same network run with a ``max_events``
bound it never reaches: bounded runs refuse absorption (and inline
advances), so they execute every delivery as a heap event.
"""

import sys

import pytest

from repro.atm import (AbrDestination, AtmNetwork, BackgroundSink, Cell,
                       CbrSource, Link, RMCell, RMDirection)
from repro.atm.link import ABSORB_SLACK
from repro.core import PhantomAlgorithm
from repro.obs import Tracer
from repro.perf.golden import trace_from_run
from repro.scenarios.generic import AtmRun
from repro.sim import PeriodicTimer, Simulator

from tests.atm.test_link import Collector

BOUNDED = sys.maxsize


def run_mode(sim: Simulator, until: float | None, fast: bool) -> None:
    if fast:
        sim.run(until=until)
    else:
        sim.run(until=until, max_events=BOUNDED)


# ----------------------------------------------------------------------
# the tie: a delivery on a reader's exact instant
# ----------------------------------------------------------------------

@pytest.mark.parametrize("delivery_first", [True, False])
@pytest.mark.parametrize("fast", [True, False])
def test_delivery_on_a_meter_tick_instant_follows_heap_order(
        delivery_first, fast):
    sim = Simulator()
    dest = AbrDestination(sim, "A")
    link = Link(sim, 150.0, 1e-5, dest)
    # the delivery instant of a cell sent at t = 0, by the link's own
    # arithmetic, so the tick lands on it exactly
    tick_at = (0.0 + link.cell_time) + link.propagation
    seen = []

    def tick(_timer):
        seen.append((sim.now, dest.data_received, len(link.absorbed)))

    def kick():
        # whichever is scheduled first draws the smaller heap seq, so
        # it runs first at the shared instant
        timer = PeriodicTimer(sim, tick_at, tick)
        if delivery_first:
            link.send(Cell("A"))
            timer.start()
        else:
            timer.start()
            link.send(Cell("A"))

    sim.schedule(0.0, kick)
    run_mode(sim, 1.5 * tick_at, fast)
    assert seen[0][:2] == (tick_at, 1 if delivery_first else 0)
    if fast and not delivery_first:
        assert seen[0][2] == 1  # the delivery was absorbed, not evented
    assert dest.data_received == 1
    assert sim.executed_events == 3
    assert not link.absorbed


def test_rm_turnaround_reads_the_efci_of_the_last_absorbed_cell():
    sim = Simulator()
    dest = AbrDestination(sim, "A", efci_to_ci=True)
    dest.attach_reverse(Collector(sim))
    link = Link(sim, 150.0, 1e-5, dest)
    rm = RMCell(vc="A", direction=RMDirection.FORWARD)

    def kick():
        link.send(Cell("A", efci=False))
        link.send(Cell("A", efci=True))
        link.send(rm)

    sim.schedule(0.0, kick)
    sim.run()
    assert rm.ci is True
    assert dest.data_received == 2
    assert dest.rm_received == 1


def test_bounded_runs_and_lossy_links_do_not_absorb():
    sim = Simulator()
    dest = AbrDestination(sim, "A")
    link = Link(sim, 150.0, 1e-5, dest)
    lossy_dest = AbrDestination(sim, "B")
    lossy = Link(sim, 150.0, 1e-5, lossy_dest, loss_rate=0.5)
    absorbed = []

    def kick():
        link.send(Cell("A"))
        lossy.send(Cell("B"))
        absorbed.append(len(link.absorbed) + len(lossy.absorbed))

    sim.schedule(0.0, kick)
    sim.run(max_events=BOUNDED)
    sim.schedule(0.0, kick)
    sim.run()
    assert absorbed == [0, 1]


def test_wrong_vc_is_not_absorbed_and_still_rejected():
    sim = Simulator()
    link = Link(sim, 150.0, 1e-5, BackgroundSink("bg"))
    sim.schedule(0.0, link.send, Cell("other"))
    with pytest.raises(ValueError):
        sim.run()


# ----------------------------------------------------------------------
# exit paths: drained heap, until, stop(), exceptions
# ----------------------------------------------------------------------

def cbr_into_sink(until: float | None, fast: bool):
    """A CBR stream into a background sink: no timer outlives the
    stream, so the heap drains with deliveries still absorbed."""
    sim = Simulator()
    sink = BackgroundSink("bg")
    source = CbrSource(sim, "bg", 50.0, start=0.0, stop=2e-4)
    source.attach_link(Link(sim, 150.0, 3e-4, sink))
    source.start()
    run_mode(sim, until, fast)
    return sim, sink


@pytest.mark.parametrize("until", [None, 1e-3, 4e-4])
def test_drained_and_bounded_exits_match_the_reference(until):
    results = []
    for fast in (True, False):
        sim, sink = cbr_into_sink(until, fast)
        results.append((sim.now, sim.executed_events, sim.pending_events,
                        sink.cells_received))
    assert results[0] == results[1]
    assert results[0][3] > 0


def test_stop_keeps_only_the_deliveries_before_the_executing_event():
    results = []
    for fast in (True, False):
        sim = Simulator()
        sink = BackgroundSink("bg")
        source = CbrSource(sim, "bg", 50.0)
        link = Link(sim, 150.0, 3e-4, sink)
        source.attach_link(link)
        source.start()
        sim.schedule_at(1e-3, sim.stop)
        run_mode(sim, None, fast)
        results.append((sim.now, sim.executed_events, sim.pending_events,
                        sink.cells_received))
        # the undelivered cells went back into the heap as events
        assert not link.absorbed
        steps = 0
        while steps < 20 and sim.step():
            steps += 1
        results.append((sim.now, sim.executed_events, sink.cells_received))
    assert results[0] == results[2]
    assert results[1] == results[3]


def test_an_exception_requeues_the_deliveries_not_yet_fired():
    sim = Simulator()
    sink = BackgroundSink("bg")
    source = CbrSource(sim, "bg", 50.0)
    link = Link(sim, 150.0, 3e-4, sink)
    source.attach_link(link)
    source.start()

    def boom():
        raise RuntimeError("boom")

    sim.schedule_at(1e-3, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert not link.absorbed
    fired = sink.cells_received
    pending = sim.pending_events
    reference = Simulator()
    ref_sink = BackgroundSink("bg")
    ref_source = CbrSource(reference, "bg", 50.0)
    ref_source.attach_link(Link(reference, 150.0, 3e-4, ref_sink))
    ref_source.start()
    reference.schedule_at(1e-3, boom)
    with pytest.raises(RuntimeError):
        reference.run(max_events=BOUNDED)
    assert (fired, pending, sim.executed_events) == (
        ref_sink.cells_received, reference.pending_events,
        reference.executed_events)


# ----------------------------------------------------------------------
# a network: timers mid-run, stepping after run(until)
# ----------------------------------------------------------------------

def two_session_net() -> AtmRun:
    net = AtmNetwork(algorithm_factory=PhantomAlgorithm)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    net.add_session("A", route=["S1", "S2"], access_delay=2e-4)
    net.add_session("B", route=["S1", "S2"], start=0.01)
    net.add_cbr("bg", route=["S1", "S2"], rate_mbps=20.0, start=0.015)
    return AtmRun(net=net, bottleneck=net.trunk("S1", "S2"),
                  duration=0.03)


def test_a_timer_reads_the_same_counters_in_both_modes():
    seen = {}
    absorbed = {}
    for fast in (True, False):
        run = two_session_net()
        net, sim = run.net, run.net.sim
        rows = seen[fast] = []
        queued = absorbed[fast] = []

        def read(_timer):
            queued.append(sum(len(link.absorbed)
                              for link in sim._absorbers))
            rows.append((sim.now, sim.executed_events, sim.pending_events,
                         *(s.destination.data_received
                           for s in net.sessions.values()),
                         net.background["bg"][1].cells_received))

        # an interval on no other component's grid
        PeriodicTimer(sim, 3.7e-4, read).start()
        net.start_meters()
        run_mode(sim, run.duration, fast)
        rows.append(trace_from_run("net", 1.0, run))
    assert seen[True] == seen[False]
    assert len(seen[True]) > 50
    assert max(absorbed[True]) > 0 and max(absorbed[False]) == 0


def test_stepping_after_run_until_executes_the_evented_sequence():
    sequences = []
    for fast in (True, False):
        run = two_session_net()
        sim = run.net.sim
        run.net.start_meters()
        run_mode(sim, run.duration, fast)
        # deliveries in flight sit in the heap now, as ordinary entries
        sim.tracer = Tracer(categories=["engine"])
        for _ in range(2000):
            sim.step()
        sequences.append((
            [(ts, fields["fn"]) for ts, kind, _c, fields in sim.tracer.events
             if kind == "engine.event"],
            trace_from_run("net", 1.0, run)))
    assert sequences[0] == sequences[1]
    assert any(fn == "AbrDestination.receive" for _ts, fn in sequences[0][0])


def test_an_unread_sink_holds_only_the_deliveries_in_flight():
    sim = Simulator()
    sink = BackgroundSink("bg")
    link = Link(sim, 150.0, 1e-5, sink)
    source = CbrSource(sim, "bg", 100.0)
    source.attach_link(link)
    source.start()
    longest = []
    sim.schedule_at(0.05, lambda: longest.append(len(link.absorbed)))
    sim.run(until=0.05)
    # 0.05 s at 100 Mb/s is ~11,800 cells, of which a few are in flight
    assert source.cells_sent > 10_000
    assert longest[0] < 2 * ABSORB_SLACK
    assert sink.cells_received == link.delivered
