"""Both packet ports peek at the heap before ``advance_inline``.

``Simulator.advance_inline`` refuses whenever the heap head is due at or
before the requested time, so a port that calls it with a blocked head
pays a method call for nothing.  The ATM output port and the TCP router
port both test the head first; these tests spy on every call of a real
run and require that each one found the head clear.
"""

import pytest

from repro.core import PhantomAlgorithm
from repro.scenarios.atm import parking_config, staggered_config
from repro.scenarios.generic import build_atm
from repro.scenarios.tcp import (build_tcp, rtt_config,
                                 selective_discard_policy)
from repro.sim.engine import Simulator


@pytest.fixture
def inline_calls(monkeypatch):
    """One entry per ``advance_inline`` call: was the heap head clear?"""
    calls = []
    real = Simulator.advance_inline

    def spy(sim, time):
        heap = sim._heap
        calls.append(not heap or heap[0][0] > time)
        return real(sim, time)

    monkeypatch.setattr(Simulator, "advance_inline", spy)
    return calls


def test_atm_port_calls_advance_inline_only_on_a_clear_head(inline_calls):
    # in the parking lot some event is always due first, so every
    # departure is refused and the peek keeps each one from the call
    build_atm(parking_config(duration=0.05),
              algorithm_factory=PhantomAlgorithm)
    # a lone trunk drains its trains inline
    build_atm(staggered_config(duration=0.05),
              algorithm_factory=PhantomAlgorithm)
    assert inline_calls, "no cell train was drained inline"
    assert all(inline_calls), (
        f"{inline_calls.count(False)} of {len(inline_calls)} calls "
        "found the heap head blocked")


def test_tcp_port_calls_advance_inline_only_on_a_clear_head(inline_calls):
    delays = tuple(i * 1e-3 for i in range(1, 9))
    build_tcp(rtt_config(delays, duration=2.0, trunk_rate=10.0),
              policy_factory=selective_discard_policy())
    assert inline_calls, "the bottleneck drained no packet train inline"
    assert all(inline_calls), (
        f"{inline_calls.count(False)} of {len(inline_calls)} calls "
        "found the heap head blocked")
