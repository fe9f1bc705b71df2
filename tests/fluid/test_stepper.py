"""Fluid stepper and model: fixed points, scaling, and determinism."""

import random

import pytest

from repro.core import PhantomAlgorithm, phantom_equilibrium_rate
from repro.fluid import (CELL_BITS, FluidNetwork, cells_to_mbps,
                         rate_cells_per_interval)
from repro.fluid.scenarios import build_fluid, many_flows
from repro.perf.golden import probe_digest
from repro.scenarios.atm import (background_config, onoff_config,
                                 parking_config, staggered_config,
                                 transient_config)
from repro.scenarios.generic import build_atm


# ----------------------------------------------------------------------
# unit helpers
# ----------------------------------------------------------------------
def test_rate_cell_conversions_roundtrip():
    rate = 68.182
    cells = rate_cells_per_interval(rate, 1e-3)
    assert cells == pytest.approx(rate * 1e6 * 1e-3 / CELL_BITS)
    assert cells_to_mbps(cells, 1e-3) == pytest.approx(rate)


def test_one_cell_per_interval_is_the_cell_rate():
    # 424 bits per millisecond is 0.424 Mb/s
    assert cells_to_mbps(1.0, 1e-3) == pytest.approx(0.424)


# ----------------------------------------------------------------------
# fixed points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 5])
def test_staggered_converges_to_phantom_equilibrium(n):
    run = build_fluid(staggered_config(n_sessions=n, duration=0.3))
    expected = phantom_equilibrium_rate(150.0, n, 5.0)
    for rate in run.steady_rates().values():
        assert rate == pytest.approx(expected, rel=0.02)
    assert run.jain() == pytest.approx(1.0, abs=1e-6)


def test_cohort_counts_share_one_grant():
    """A 3-flow cohort and a singleton get the same per-flow rate, and
    the count-weighted aggregate fills the equilibrium share of 4."""
    net = FluidNetwork()
    trunk = net.add_trunk("T", capacity_mbps=150.0)
    net.add_cohort("trio", route=["T"], count=3)
    net.add_cohort("solo", route=["T"], count=1)
    net.run(until=0.3)
    from repro.fluid.results import FluidRun

    run = FluidRun(net=net, bottleneck=trunk, duration=0.3)
    rates = run.steady_rates()
    assert rates["trio"] == pytest.approx(rates["solo"], rel=1e-6)
    expected = phantom_equilibrium_rate(150.0, 4, 5.0)
    assert rates["solo"] == pytest.approx(expected, rel=0.02)
    assert run.utilization() == pytest.approx(4 * expected / 150.0,
                                              rel=0.02)


def test_grant_is_min_over_route():
    """A cohort crossing a narrow trunk is held to the narrow grant even
    where the wide trunk would allow more."""
    net = FluidNetwork()
    net.add_trunk("wide", capacity_mbps=150.0)
    narrow = net.add_trunk("narrow", capacity_mbps=50.0)
    net.add_cohort("through", route=["wide", "narrow"])
    net.add_cohort("local", route=["wide"])
    net.run(until=0.4)
    from repro.fluid.results import FluidRun

    run = FluidRun(net=net, bottleneck=narrow, duration=0.4)
    rates = run.steady_rates()
    # the through cohort is alone at the 50 Mb/s trunk: its share there
    # is the single-session equilibrium of the narrow link
    assert rates["through"] == pytest.approx(
        phantom_equilibrium_rate(50.0, 1, 5.0), rel=0.05)
    assert rates["local"] > rates["through"]


def test_transient_reclaims_single_session_share():
    run = build_fluid(transient_config(duration=0.4))
    expected = phantom_equilibrium_rate(150.0, 1, 5.0)  # 125 Mb/s
    assert run.steady_rates()["base"] == pytest.approx(expected,
                                                       rel=0.02)


def test_rm_loss_preserves_the_fixed_point():
    """Thinned feedback stretches time constants but moves no fixed
    point: the lossy run must land on the lossless rates."""
    config = staggered_config(n_sessions=2, duration=0.4)
    clean = build_fluid(config)
    lossy = build_fluid(dict(config, rm_loss=0.3))
    for name, rate in clean.steady_rates().items():
        assert lossy.steady_rates()[name] == pytest.approx(rate,
                                                           rel=0.05)


def test_binary_mode_is_fair_and_bounded():
    run = build_fluid(staggered_config(n_sessions=2, duration=0.4),
                      mode="binary")
    rates = run.steady_rates()
    assert run.jain() == pytest.approx(1.0, abs=0.05)
    assert 0.4 < run.utilization() <= 1.05
    for rate in rates.values():
        assert 0.0 < rate < 150.0


def test_forward_delay_keeps_the_fixed_point():
    """Propagation shifts arrivals by whole intervals; steady state is
    unchanged."""
    net = FluidNetwork()
    trunk = net.add_trunk("T", capacity_mbps=150.0)
    net.add_cohort("near", route=["T"])
    net.add_cohort("far", route=["T"], forward_delays=(5e-3,))
    net.run(until=0.4)
    from repro.fluid.results import FluidRun

    run = FluidRun(net=net, bottleneck=trunk, duration=0.4)
    rates = run.steady_rates()
    expected = phantom_equilibrium_rate(150.0, 2, 5.0)
    assert rates["near"] == pytest.approx(expected, rel=0.03)
    assert rates["far"] == pytest.approx(expected, rel=0.03)


# ----------------------------------------------------------------------
# grouping: cost per trunk, not per cohort
# ----------------------------------------------------------------------
def test_identical_cohorts_share_one_group():
    net = FluidNetwork()
    net.add_trunk("T")
    for i in range(8):
        net.add_cohort(f"c{i}", route=["T"], count=1000)
    assert len(net.groups) == 1
    assert len(net.groups[0].cohorts) == 8


def test_distinct_dynamics_split_groups():
    net = FluidNetwork()
    net.add_trunk("T")
    net.add_cohort("a", route=["T"])
    net.add_cohort("b", route=["T"], rm_loss=0.2)
    net.add_cohort("c", route=["T"], feedback_delay=5e-3)
    assert len(net.groups) == 3


def test_flow_count_does_not_change_step_count():
    small = many_flows(cohorts=2, flows_per_cohort=10, greedy=2,
                       duration=0.1)
    large = many_flows(cohorts=2, flows_per_cohort=100000, greedy=2,
                       duration=0.1)
    assert small.net.steps == large.net.steps
    assert len(small.net.groups) == len(large.net.groups)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def _onoff_digests(seed):
    run = build_fluid(onoff_config(duration=0.3), seed=seed)
    return {c.name: probe_digest(c.rate_probe)
            for c in run.net.cohorts} | {
                "queue": probe_digest(run.queue_probe),
                "macr": probe_digest(run.macr_probe)}


def test_onoff_same_seed_is_bit_identical():
    assert _onoff_digests(7) == _onoff_digests(7)


def test_onoff_seed_changes_the_trajectory():
    assert _onoff_digests(7) != _onoff_digests(8)


def test_a_default_stream_gives_both_tiers_the_same_phases(monkeypatch):
    # generated on/off sessions leave their stream at "onoff.<vc>"; the
    # fluid cohort must draw the packet driver's phase durations from it
    config = {"switches": ["S1", "S2"], "trunks": [{"a": "S1", "b": "S2"}],
              "sessions": [{"vc": "s0", "route": ["S1", "S2"],
                            "onoff": {"on": 0.01, "off": 0.01}}],
              "duration": 0.1}
    drawn: list[float] = []
    expovariate = random.Random.expovariate

    def recording(rng, lambd):
        drawn.append(expovariate(rng, lambd))
        return drawn[-1]

    monkeypatch.setattr(random.Random, "expovariate", recording)
    build_atm(config, algorithm_factory=PhantomAlgorithm, seed=3)
    packet = drawn[:]
    drawn.clear()
    build_fluid(config, seed=3)
    shared = min(len(packet), len(drawn))
    assert shared >= 4
    assert drawn[:shared] == packet[:shared]


def test_idle_reset_restarts_from_icr():
    """Silence longer than ``idle_reset`` falls back to ICR on
    reactivation (use-it-or-lose-it); a short gap keeps the old rate."""
    net = FluidNetwork()
    net.add_trunk("T")
    cohort = net.add_cohort("c", route=["T"])
    net.run(until=0.1)
    ramped = cohort.acr
    assert ramped > cohort.params.icr
    cohort.set_active(False)
    net.run(until=0.1 + 2 * cohort.params.idle_reset)
    cohort.set_active(True)
    assert cohort.acr == pytest.approx(cohort.params.icr)

    net2 = FluidNetwork()
    net2.add_trunk("T")
    c2 = net2.add_cohort("c", route=["T"])
    net2.run(until=0.1)
    ramped2 = c2.acr
    c2.set_active(False)
    net2.run(until=0.1 + 0.2 * c2.params.idle_reset)
    c2.set_active(True)
    assert c2.acr == pytest.approx(ramped2)


# ----------------------------------------------------------------------
# rendering scenario configs
# ----------------------------------------------------------------------
def test_build_fluid_names_trunks_and_cohorts_like_the_packet_tier():
    run = build_fluid(parking_config(hops=3, duration=0.02))
    assert list(run.net.trunks) == ["S1->S2", "S2->S3", "S3->S4"]
    assert [c.name for c in run.net.cohorts] == [
        "long", "cross0", "cross1", "cross2"]
    assert run.bottleneck is run.net.trunks["S1->S2"]


def test_build_fluid_follows_reverse_routes_and_a_named_bottleneck():
    run = build_fluid({
        "switches": ["A", "B"],
        "trunks": [{"a": "A", "b": "B", "rate": 100.0}],
        "sessions": [{"vc": "f", "route": ["A", "B"]},
                     {"vc": "r", "route": ["B", "A"]}],
        "bottleneck": ["B", "A"], "duration": 0.02})
    assert run.net.capacities() == {"A->B": 100.0, "B->A": 100.0}
    assert run.bottleneck is run.net.trunks["B->A"]


def test_build_fluid_refuses_background_traffic():
    with pytest.raises(ValueError, match="'cbr'"):
        build_fluid(background_config())
