"""Tests for the analytic Phantom loop model, including model-vs-
simulation agreement."""

import math

import pytest

from repro.atm import AtmNetwork
from repro.core import (PhantomAlgorithm, PhantomLoopModel, PhantomParams,
                        phantom_equilibrium_rate)


def test_model_converges_to_closed_form():
    model = PhantomLoopModel(150.0)
    for n in (1, 2, 3):
        trace = model.run(n_sessions=n, intervals=500)
        expected = model.equilibrium_rate(n)
        for rate in trace.final_rates():
            assert rate == pytest.approx(expected, rel=0.02)


def test_model_equilibrium_matches_module_closed_form():
    model = PhantomLoopModel(150.0)
    assert model.equilibrium_rate(2) == pytest.approx(
        phantom_equilibrium_rate(150.0, 2, 5.0))


def test_model_weighted_equilibrium():
    model = PhantomLoopModel(150.0, weights=[1.0, 2.0])
    trace = model.run(n_sessions=2, intervals=500)
    light, heavy = trace.final_rates()
    assert heavy == pytest.approx(2 * light, rel=0.02)
    # Δ = C − 3fΔ => light = f·150/16
    assert light == pytest.approx(5 * 150 / 16, rel=0.05)


def test_model_settle_time_finite_and_fast():
    model = PhantomLoopModel(150.0)
    trace = model.run(n_sessions=2, intervals=300)
    settle = trace.settle_time(tolerance=0.1)
    assert settle < 0.05  # tens of intervals at 1 ms


def test_stability_predicate():
    model = PhantomLoopModel(150.0)
    # alpha_inc = 1/16: gain 11/16 at n=2 (stable), 41/16 at n=8 (not)
    assert model.is_stable(2)
    assert not model.is_stable(8)


def test_stability_boundary_tracks_alpha():
    gentle = PhantomLoopModel(
        150.0, phantom=PhantomParams(alpha_inc=1 / 64, alpha_dec=1 / 64))
    assert gentle.is_stable(8)
    assert gentle.is_stable(20)


def test_unstable_configuration_misses_closed_form():
    """Past the bound the model limit-cycles below the equilibrium —
    the same bias the E19 suite rows measure in full simulation."""
    model = PhantomLoopModel(
        150.0, phantom=PhantomParams(utilization_factor=20.0))
    trace = model.run(n_sessions=2, intervals=1000)
    expected = model.equilibrium_rate(2)
    mean_rate = sum(trace.final_rates()) / 2
    tail = [sum(r) for r in trace.rates[-200:]]
    # oscillation persists...
    assert max(tail) - min(tail) > 1.0
    # ...and the time-average misses the fixed point from below
    assert sum(tail) / len(tail) / 2 < expected


def test_model_agrees_with_simulation():
    """Interval-level model vs the full cell-level simulator (2 greedy
    sessions): equilibria within 5%, both settle within 60 ms."""
    model = PhantomLoopModel(150.0)
    trace = model.run(n_sessions=2, intervals=250)

    net = AtmNetwork(algorithm_factory=PhantomAlgorithm)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    a = net.add_session("A", route=["S1", "S2"])
    net.add_session("B", route=["S1", "S2"])
    net.run(until=0.25)

    assert a.source.acr == pytest.approx(trace.final_rates()[0], rel=0.05)
    assert trace.settle_time(0.1) < 0.06


@pytest.mark.parametrize("n_sessions", [1, 3])
def test_model_tracks_simulation_across_session_counts(n_sessions):
    """The model's stable equilibrium is the simulator's: one and three
    greedy sessions end within 5% of the model's rate."""
    model = PhantomLoopModel(150.0)
    assert model.is_stable(n_sessions)
    trace = model.run(n_sessions=n_sessions, intervals=250)

    net = AtmNetwork(algorithm_factory=PhantomAlgorithm)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    first = [net.add_session(f"s{i}", route=["S1", "S2"])
             for i in range(n_sessions)][0]
    net.run(until=0.25)

    assert first.source.acr == pytest.approx(trace.final_rates()[0],
                                             rel=0.05)


def test_model_validation():
    model = PhantomLoopModel(150.0)
    with pytest.raises(ValueError):
        PhantomLoopModel(0.0)
    with pytest.raises(ValueError):
        model.run(n_sessions=0, intervals=10)
    with pytest.raises(ValueError):
        model.run(n_sessions=1, intervals=0)
    with pytest.raises(ValueError):
        model.run(n_sessions=2, intervals=10, start_rates=[1.0])
    with pytest.raises(ValueError):
        PhantomLoopModel(150.0, weights=[1.0]).run(2, 10)


def test_settle_time_inf_when_oscillating():
    model = PhantomLoopModel(
        150.0, phantom=PhantomParams(utilization_factor=20.0,
                                     use_deviation=False))
    trace = model.run(n_sessions=2, intervals=400)
    assert math.isinf(trace.settle_time(tolerance=0.01))
