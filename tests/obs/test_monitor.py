"""Invariant monitors: the checks a HealthReport is built from."""

import pytest

from repro.core import PhantomAlgorithm
from repro.obs.monitor import (PASS, VANDALORE_SAFETY, VIOLATED, check,
                               conservation_check, convergence_check,
                               fairness_gap_check, oscillation_check,
                               queue_bound_check, vandalore_bound)
from repro.scenarios import build_atm, staggered_config
from repro.sim import units
from repro.sim.probe import Probe


def make_probe(samples, name="p"):
    probe = Probe(name)
    for t, v in samples:
        probe.record(t, v)
    return probe


# ----------------------------------------------------------------------
# check shape and the Vandalore bound
# ----------------------------------------------------------------------

def test_check_shape_and_verdict_vocabulary():
    out = check("conservation", PASS, evidence={"k": 1})
    assert out == {"name": "conservation", "verdict": "pass",
                   "first_violation_ts": None, "evidence": {"k": 1}}
    with pytest.raises(ValueError):
        check("conservation", "maybe")


def test_vandalore_bound_formula():
    # 150 Mb/s for safety*(0 + 1ms)*2 sessions, in cells
    expected = 150e6 * VANDALORE_SAFETY * 1e-3 * 2 / units.CELL_BITS
    assert vandalore_bound(150.0, 1e-3, sessions=2) == \
        pytest.approx(expected)
    # packet units shrink the count by the bits-per-unit ratio
    packets = vandalore_bound(150.0, 1e-3, sessions=2,
                              bits_per_unit=12000)
    assert packets == pytest.approx(expected * units.CELL_BITS / 12000)
    with pytest.raises(ValueError):
        vandalore_bound(0.0, 1e-3)


# ----------------------------------------------------------------------
# checks on a real packet run
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def e01_run():
    return build_atm(staggered_config(duration=0.3),
                     algorithm_factory=PhantomAlgorithm)


def test_conservation_exact_on_e01(e01_run):
    out = conservation_check(e01_run)
    assert out["verdict"] == PASS
    assert out["evidence"]["unbalanced"] == []
    for ledger in out["evidence"]["ports"].values():
        assert ledger["balance"] == 0
        assert ledger["arrivals"] == (ledger["departures"]
                                      + ledger["drops"]
                                      + ledger["queued"])


def test_conservation_flags_a_tampered_counter(e01_run):
    port = next(iter(e01_run.net.trunks.values()))
    original = port.arrivals
    port.arrivals += 1
    try:
        out = conservation_check(e01_run)
        assert out["verdict"] == VIOLATED
        assert port.name in out["evidence"]["unbalanced"]
    finally:
        port.arrivals = original


def test_queue_bound_pass_on_e01(e01_run):
    out = queue_bound_check(e01_run)
    assert out["verdict"] == PASS
    assert out["first_violation_ts"] is None
    for name, peak in out["evidence"]["peak"].items():
        assert peak <= out["evidence"]["bounds"][name]


def test_queue_bound_explicit_bound_can_violate(e01_run):
    out = queue_bound_check(e01_run, bound_cells=0.5)
    assert out["verdict"] == VIOLATED
    assert out["first_violation_ts"] is not None


# ----------------------------------------------------------------------
# rate checks on synthetic series
# ----------------------------------------------------------------------

def test_convergence_check_settles_and_reports_time():
    oracle = {"s0": 100.0}
    probe = make_probe([(0.0, 0.0), (0.1, 50.0), (0.2, 99.0),
                        (0.5, 100.0)], name="s0")
    out = convergence_check({"s0": probe}, oracle, horizon=0.5)
    assert out["verdict"] == PASS
    assert out["evidence"]["settling_s"]["s0"] == pytest.approx(0.2)
    assert out["evidence"]["horizon_s"] == 0.5


def test_convergence_check_flags_unsettled_and_missing():
    oracle = {"s0": 100.0, "s1": 100.0}
    wanders = make_probe([(0.0, 0.0), (0.2, 120.0), (0.4, 80.0)],
                         name="s0")
    out = convergence_check({"s0": wanders}, oracle)
    assert out["verdict"] == VIOLATED
    assert out["evidence"]["unsettled"] == ["s0", "s1"]
    assert out["evidence"]["settling_s"] == {"s0": None, "s1": None}


def test_oscillation_check_bounds_post_settling_swing():
    oracle = {"s0": 100.0}
    # settles at t=0.2, then swings 98..102 (allowed: 2*2*.05*100=20)
    calm = make_probe([(0.0, 0.0), (0.2, 100.0), (0.3, 98.0),
                       (0.4, 102.0)], name="s0")
    out = oscillation_check({"s0": calm}, oracle, {"s0": 0.2},
                            horizon=0.4)
    assert out["verdict"] == PASS
    assert out["evidence"]["peak_to_peak"]["s0"] == pytest.approx(4.0)
    # same series judged ringing under a tiny eps
    out = oscillation_check({"s0": calm}, oracle, {"s0": 0.2},
                            eps=0.005, horizon=0.4)
    assert out["verdict"] == VIOLATED
    assert out["evidence"]["ringing"] == ["s0"]


def test_oscillation_check_skips_unsettled_sessions():
    oracle = {"s0": 100.0}
    probe = make_probe([(0.0, 0.0), (0.4, 50.0)], name="s0")
    out = oscillation_check({"s0": probe}, oracle, {"s0": None})
    assert out["verdict"] == PASS
    assert out["evidence"]["peak_to_peak"] == {}


def test_fairness_gap_check_worst_relative_error():
    oracle = {"s0": 100.0, "s1": 50.0}
    out = fairness_gap_check({"s0": 98.0, "s1": 51.0}, oracle)
    assert out["verdict"] == PASS
    assert out["evidence"]["max_rel_error"] == pytest.approx(0.02)
    out = fairness_gap_check({"s0": 80.0, "s1": 50.0}, oracle)
    assert out["verdict"] == VIOLATED
    with pytest.raises(ValueError):
        fairness_gap_check({"sX": 1.0}, oracle)


# ----------------------------------------------------------------------
# fluid conservation: replay matches the stepper bit-for-bit
# ----------------------------------------------------------------------

def test_fluid_conservation_replays_queue_integral():
    from repro.fluid.scenarios import build_fluid

    run = build_fluid(staggered_config())
    out = conservation_check(run)
    assert out["verdict"] == PASS
    assert out["evidence"]["unbalanced"] == []
    for ledger in out["evidence"]["trunks"].values():
        assert ledger["drift"] <= 1e-6 * max(1.0, abs(ledger["final"]))


def test_fluid_queue_bound_scales_with_flow_count():
    from repro.fluid.scenarios import build_fluid

    config = staggered_config(duration=0.1)
    small = queue_bound_check(build_fluid(config))
    big = queue_bound_check(build_fluid(config, flows_per_session=10))
    (name,) = small["evidence"]["bounds"]
    assert big["evidence"]["bounds"][name] == \
        pytest.approx(10 * small["evidence"]["bounds"][name])

