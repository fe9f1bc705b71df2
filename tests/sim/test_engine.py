"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationError


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_is_inclusive_and_sets_now():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=1.0)
    assert fired == [1]
    assert sim.now == 1.0
    sim.run(until=3.0)
    assert fired == [1]
    assert sim.now == 3.0  # horizon reached even with no event there
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []
    assert sim.executed_events == 0


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.run()
    ev.cancel()
    ev.cancel()


def test_stop_ends_run_early():
    sim = Simulator()
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_until_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_max_events_bounds_execution():
    sim = Simulator()
    counter = []
    for _ in range(10):
        sim.schedule(1.0, counter.append, 1)
    sim.run(max_events=3)
    assert len(counter) == 3


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.pending_events == 1


def test_callback_args_passed_through():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
    sim.run()
    assert got == [(1, "x")]


def test_zero_delay_executes_at_current_time():
    sim = Simulator()
    times = []

    def outer():
        sim.schedule(0.0, lambda: times.append(sim.now))

    sim.schedule(2.0, outer)
    sim.run()
    assert times == [2.0]


def test_executed_events_counts_fired_only():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    ev.cancel()
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert sim.executed_events == 2


def test_run_from_a_callback_raises_and_a_later_run_proceeds():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, sim.run)
    sim.schedule(2.0, fired.append, "after")
    with pytest.raises(SimulationError, match="not reentrant"):
        sim.run()
    assert fired == []
    # the guard is reset on the way out, so the next run proceeds
    sim.run()
    assert fired == ["after"]
    assert sim.now == 2.0
