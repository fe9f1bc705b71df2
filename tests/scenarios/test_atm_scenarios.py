"""The paper's ATM configurations, rendered by build_atm under Phantom.

What the configurations claim is checked on the suite's own results in
tests/test_paper_claims.py; these tests cover their validation, wiring
and seeding.
"""

import pytest

from repro.core import PhantomAlgorithm
from repro.scenarios.atm import (background_config, onoff_config,
                                 parking_config, rtt_config,
                                 staggered_config, transient_config,
                                 weighted_config)
from repro.scenarios.config import validate_config
from repro.scenarios.generic import build_atm


def _phantom(config, **kwargs):
    return build_atm(config, algorithm_factory=PhantomAlgorithm, **kwargs)


def test_staggered_start_validation():
    with pytest.raises(ValueError):
        staggered_config(n_sessions=0)


def test_on_off_reproducible_by_seed():
    a = _phantom(onoff_config(duration=0.2), seed=5)
    b = _phantom(onoff_config(duration=0.2), seed=5)
    assert a.steady_rates() == b.steady_rates()


def test_parking_lot_routes_the_long_session_over_every_trunk():
    run = _phantom(parking_config(hops=3, duration=0.3), run=False)
    assert run.net.sessions["long"].route == ["S1", "S2", "S3", "S4"]
    assert run.bottleneck is run.net.trunk("S1", "S2")


def test_parking_lot_validation():
    with pytest.raises(ValueError):
        parking_config(hops=1)


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
