"""The paper's ATM configurations, rendered by build_atm under Phantom."""

import pytest

from repro.core import PhantomAlgorithm, phantom_equilibrium_rate
from repro.scenarios.atm import (background_config, onoff_config,
                                 parking_config, rtt_config,
                                 staggered_config, transient_config,
                                 weighted_config)
from repro.scenarios.config import validate_config
from repro.scenarios.generic import build_atm


def _phantom(config, **kwargs):
    return build_atm(config, algorithm_factory=PhantomAlgorithm, **kwargs)


def test_staggered_start_structure_and_convergence():
    run = _phantom(staggered_config(n_sessions=2, duration=0.2))
    assert set(run.net.sessions) == {"s0", "s1"}
    rates = run.steady_rates()
    expected = phantom_equilibrium_rate(150.0, 2, 5.0) * 31 / 32
    for rate in rates.values():
        assert rate == pytest.approx(expected, rel=0.15)
    assert run.jain() > 0.99


def test_staggered_start_macr_and_queue_probes():
    run = _phantom(staggered_config(n_sessions=2, duration=0.15))
    assert run.macr_probe is not None
    assert len(run.macr_probe) > 100
    assert run.queue_stats()["max"] < 2000


def test_staggered_start_validation():
    with pytest.raises(ValueError):
        staggered_config(n_sessions=0)


def test_rtt_spread_rates_equal_despite_rtt():
    run = _phantom(rtt_config(access_delays=(1e-5, 1e-3), duration=0.3))
    rates = run.steady_rates()
    values = list(rates.values())
    assert values[0] == pytest.approx(values[1], rel=0.1)
    assert run.jain() > 0.99


def test_on_off_greedy_keeps_flowing_beside_bursts():
    run = _phantom(onoff_config(greedy=1, bursty=1, duration=0.3), seed=3)
    greedy_rate = run.steady_rates(fraction=0.5)["greedy0"]
    assert greedy_rate > 30.0  # greedy session keeps flowing
    assert run.net.sessions["onoff0"].destination.data_received > 0


def test_on_off_reproducible_by_seed():
    a = _phantom(onoff_config(duration=0.2), seed=5)
    b = _phantom(onoff_config(duration=0.2), seed=5)
    assert a.steady_rates() == b.steady_rates()


def test_parking_lot_long_session_not_beaten_down():
    run = _phantom(parking_config(hops=3, duration=0.3))
    rates = run.steady_rates()
    # at the first trunk: long + cross0 -> each should get ~equal share;
    # long must not be squeezed below cross sessions' rates
    assert rates["long"] == pytest.approx(rates["cross0"], rel=0.2)
    assert run.net.sessions["long"].route == ["S1", "S2", "S3", "S4"]
    assert run.bottleneck is run.net.trunk("S1", "S2")


def test_parking_lot_validation():
    with pytest.raises(ValueError):
        parking_config(hops=1)


def test_transient_visitor_joins_and_leaves():
    run = _phantom(transient_config(duration=0.4, join_at=0.1,
                                    leave_at=0.25))
    base = run.net.sessions["base"]
    # during the shared period both run near the 2-session share
    shared = base.acr_probe.value_at(0.24)
    assert shared == pytest.approx(
        phantom_equilibrium_rate(150.0, 2, 5.0), rel=0.25)
    # after the departure the survivor reclaims the single-session share
    final = base.acr_probe.value_at(0.39)
    assert final == pytest.approx(
        phantom_equilibrium_rate(150.0, 1, 5.0), rel=0.15)


def test_transient_validation():
    with pytest.raises(ValueError):
        transient_config(join_at=0.3, leave_at=0.2, duration=0.4)


def test_every_paper_config_is_a_valid_scenario_config():
    for config in (staggered_config(), onoff_config(), rtt_config(),
                   parking_config(), transient_config(),
                   background_config(), weighted_config()):
        assert validate_config(config) == []


def test_run_false_defers_execution():
    run = _phantom(staggered_config(duration=0.1), run=False)
    assert run.net.sim.now == 0.0
    run.net.run(until=run.duration)
    assert run.net.sim.now == pytest.approx(0.1)
