"""Unit tests for the MACR filter."""

import pytest

from repro.core import MacrFilter, PhantomParams


def run_filter(filt, samples):
    for s in samples:
        filt.update(s)
    return filt.macr


def test_converges_to_constant_residual():
    filt = MacrFilter(150.0, PhantomParams(macr_init=0.0))
    run_filter(filt, [30.0] * 400)
    assert filt.macr == pytest.approx(30.0, rel=0.01)


def test_initial_value_from_params():
    filt = MacrFilter(150.0, PhantomParams(macr_init=8.5))
    assert filt.macr == 8.5


def test_initial_value_clamped_to_capacity():
    filt = MacrFilter(10.0, PhantomParams(macr_init=50.0))
    assert filt.macr == 10.0


def test_decrease_faster_than_increase():
    params = PhantomParams(macr_init=50.0, use_deviation=False)
    up = MacrFilter(150.0, params)
    up.update(100.0)
    gain_up = (up.macr - 50.0) / 50.0

    down = MacrFilter(150.0, params)
    down.update(0.0)
    gain_down = (50.0 - down.macr) / 50.0
    assert gain_down > gain_up


def test_negative_residual_pushes_down_hard():
    filt = MacrFilter(150.0, PhantomParams(macr_init=50.0))
    filt.update(-150.0)
    # alpha_dec = 1/4 of err = -200 -> macr = 0 after clamp
    assert filt.macr == pytest.approx(0.0)


def test_macr_clamped_to_capacity():
    filt = MacrFilter(150.0, PhantomParams(macr_init=149.0,
                                           use_deviation=False))
    run_filter(filt, [1000.0] * 50)
    assert filt.macr == 150.0


def test_macr_never_negative():
    filt = MacrFilter(150.0, PhantomParams(macr_init=1.0))
    run_filter(filt, [-1000.0] * 10)
    assert filt.macr == 0.0


def test_deviation_deadband_holds_under_oscillation():
    """Steady-state oscillation of the residual must not drag MACR up.

    With a residual alternating 20 ± 15 around a MACR already at the mean,
    the deviation-damped filter should hold near 20 while the raw filter
    keeps chasing the peaks: the upward excursions are discounted by DEV.
    """
    samples = [5.0, 35.0] * 300

    damped = MacrFilter(150.0, PhantomParams(macr_init=20.0))
    raw = MacrFilter(150.0, PhantomParams(macr_init=20.0,
                                          use_deviation=False))
    for s in samples:
        damped.update(s)
        raw.update(s)

    # both stay in the oscillation band...
    assert 0.0 < damped.macr < 35.0
    # ...but the damped filter sits strictly lower (conservative)
    assert damped.macr < raw.macr


def test_deviation_term_damps_a_steady_sawtooth():
    """Paper §2 (E07): the mean-deviation term suppresses the MACR ripple
    a saw-toothing residual (30 ± 15 Mb/s) would cause."""

    def tail_ripple(use_deviation):
        filt = MacrFilter(150.0, PhantomParams(
            macr_init=30.0, use_deviation=use_deviation))
        trace = []
        for i in range(600):
            filt.update(30.0 + (15.0 if i % 2 else -15.0))
            trace.append(filt.macr)
        tail = trace[300:]
        return max(tail) - min(tail)

    assert tail_ripple(True) < tail_ripple(False)


def test_deviation_decays_when_signal_stabilises():
    filt = MacrFilter(150.0, PhantomParams(macr_init=0.0))
    run_filter(filt, [5.0, 35.0] * 50)
    assert filt.dev > 1.0
    run_filter(filt, [20.0] * 400)
    assert filt.dev < 0.5
    assert filt.macr == pytest.approx(20.0, rel=0.05)


def test_state_is_two_scalars():
    filt = MacrFilter(150.0)
    state = filt.state_vars()
    assert set(state) == {"macr", "dev"}


def test_update_counter():
    filt = MacrFilter(150.0)
    run_filter(filt, [10.0] * 7)
    assert filt.updates == 7


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        MacrFilter(0.0)


@pytest.mark.parametrize("kwargs", [
    {"interval": 0.0},
    {"utilization_factor": 0.0},
    {"alpha_inc": 0.0},
    {"alpha_inc": 1.5},
    {"alpha_dec": -0.1},
    {"beta": 2.0},
    {"dev_margin": -1.0},
    {"macr_init": -5.0},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        PhantomParams(**kwargs)
