"""Unit tests for the kernel-internal fast scheduling tier.

``schedule_fast_at`` and ``advance_inline`` carry the
hot path's contract: mixing them with the checked tier must be
bit-identical to using the checked tier throughout.  These tests pin the
observable pieces of that contract — shared tie-break, event counting,
and every refusal condition of the inline-advance shortcut.
"""

import gc

import pytest

from repro.sim import Simulator


# ----------------------------------------------------------------------
# fast scheduling
# ----------------------------------------------------------------------

def test_fast_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_fast_at(3.0, order.append, ("c",))
    sim.schedule_fast_at(1.0, order.append, ("a",))
    sim.schedule_fast_at(2.0, order.append, ("b",))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.executed_events == 3


def test_fast_and_checked_tiers_share_the_tie_break():
    """Insertion order decides ties regardless of the tier used."""
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "checked-1")
    sim.schedule_fast_at(1.0, order.append, ("fast-1",))
    sim.schedule_at(1.0, order.append, "checked-2")
    sim.schedule_fast_at(1.0, order.append, ("fast-2",))
    sim.run()
    assert order == ["checked-1", "fast-1", "checked-2", "fast-2"]


def test_fast_args_default_to_empty_tuple():
    sim = Simulator()
    fired = []
    sim.schedule_fast_at(1.0, lambda: fired.append(True))
    sim.run()
    assert fired == [True]


def test_fast_events_count_toward_pending_events():
    sim = Simulator()
    sim.schedule_fast_at(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    ev.cancel()
    assert sim.pending_events == 1


def test_inlined_heappush_contract_matches_schedule_fast():
    """Components that push 5-tuples directly interleave correctly."""
    from heapq import heappush

    sim = Simulator()
    order = []
    sim.schedule_fast_at(1.0, order.append, ("via-method",))
    # the documented entry layout: (time, seq, None, fn, args)
    heappush(sim._heap, (1.0, next(sim._seq), None,
                         order.append, ("via-heappush",)))
    sim.schedule_fast_at(1.0, order.append, ("via-method-2",))
    sim.run()
    assert order == ["via-method", "via-heappush", "via-method-2"]


# ----------------------------------------------------------------------
# advance_inline
# ----------------------------------------------------------------------

def test_advance_inline_refused_outside_run():
    sim = Simulator()
    assert sim.advance_inline(1.0) is False
    assert sim.now == 0.0
    assert sim.executed_events == 0


def test_advance_inline_advances_clock_and_counts_one_event():
    sim = Simulator()
    seen = []

    def inside():
        assert sim.advance_inline(2.0) is True
        seen.append(sim.now)

    sim.schedule(1.0, inside)
    sim.run()
    assert seen == [2.0]
    assert sim.now == 2.0
    # the callback's own event plus the inline advance
    assert sim.executed_events == 2


def test_advance_inline_refused_when_a_tie_or_earlier_event_pends():
    sim = Simulator()
    results = []

    def inside():
        sim.schedule_fast_at(2.0, lambda: None)  # pending at t=2.0
        results.append(sim.advance_inline(2.0))  # tie -> must refuse
        results.append(sim.advance_inline(3.0))  # later event -> refuse
        results.append(sim.advance_inline(1.5))  # strictly first -> ok

    sim.schedule(1.0, inside)
    sim.run()
    assert results == [False, False, True]


def test_advance_inline_refused_beyond_until_bound():
    sim = Simulator()
    results = []

    def inside():
        results.append(sim.advance_inline(5.0))  # beyond until
        results.append(sim.advance_inline(2.0))  # within until

    sim.schedule(1.0, inside)
    sim.run(until=2.0)
    assert results == [False, True]
    assert sim.now == 2.0


def test_advance_inline_refused_under_max_events():
    """Bounded runs keep exact per-event semantics (safety valve)."""
    sim = Simulator()
    results = []
    sim.schedule(1.0, lambda: results.append(sim.advance_inline(2.0)))
    sim.run(max_events=10)
    assert results == [False]


def test_advance_inline_refused_after_stop():
    sim = Simulator()
    results = []

    def inside():
        sim.stop()
        results.append(sim.advance_inline(2.0))

    sim.schedule(1.0, inside)
    sim.run()
    assert results == [False]


def test_advance_inline_equivalence_with_scheduled_wakeup():
    """Draining via the shortcut reproduces the evented run exactly."""

    def drain_with(use_inline: bool):
        sim = Simulator()
        trace = []
        remaining = [5]

        def departure():
            trace.append(sim.now)
            if remaining[0] == 0:
                return
            remaining[0] -= 1
            at = sim.now + 0.25
            if use_inline and sim.advance_inline(at):
                departure()
            else:
                sim.schedule_fast_at(at, departure)

        sim.schedule(1.0, departure)
        sim.run()
        return trace, sim.executed_events, sim.now

    assert drain_with(True) == drain_with(False)


# ----------------------------------------------------------------------
# GC pause around run()
# ----------------------------------------------------------------------

def test_run_pauses_and_restores_gc():
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        sim = Simulator()
        states = []
        sim.schedule(1.0, lambda: states.append(gc.isenabled()))
        sim.run()
        assert states == [False]
        assert gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_run_restores_gc_on_exception():
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        sim = Simulator()

        def boom():
            raise RuntimeError("callback failure")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_run_leaves_disabled_gc_disabled():
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert not gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
