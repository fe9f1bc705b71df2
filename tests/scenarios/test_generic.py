"""Config-driven ATM construction (``repro.scenarios.generic``)."""

from repro.core import PhantomAlgorithm
from repro.scenarios.config import validate_config
from repro.scenarios.generic import build_atm

LOSSY = {
    "switches": ["S1", "S2"],
    "trunks": [{"a": "S1", "b": "S2"}],
    "link_rate": 120.0,
    "sessions": [{"vc": "near", "route": ["S1", "S2"]},
                 {"vc": "far", "route": ["S1", "S2"],
                  "access_delay": 7.4e-4}],
    "rm_loss": 0.02,
    "duration": 0.01,
}


def test_rm_loss_twin_keeps_the_replaced_links_rate_and_delay():
    run = build_atm(LOSSY, algorithm_factory=PhantomAlgorithm, run=False)
    switch = run.net.switches["S1"]
    for vc, delay in (("near", 1e-5), ("far", 7.4e-4)):
        lossy = switch._backward[vc]
        assert lossy.loss_rate == 0.02
        assert lossy.name == f"{vc}.back.lossy"
        assert lossy.propagation == delay
        assert lossy.rate_mbps == 120.0
        assert switch._backward_recv[vc] == lossy.receive


def test_rm_loss_twin_drops_feedback_cells():
    run = build_atm(dict(LOSSY, duration=0.05),
                    algorithm_factory=PhantomAlgorithm)
    switch = run.net.switches["S1"]
    assert all(switch._backward[vc].lost > 0 for vc in ("near", "far"))


ONE_TRUNK = {"switches": ["S1", "S2"], "trunks": [{"a": "S1", "b": "S2"}],
             "duration": 0.05}


def test_session_stop_silences_its_source():
    config = dict(ONE_TRUNK, sessions=[
        {"vc": "stays", "route": ["S1", "S2"]},
        {"vc": "leaves", "route": ["S1", "S2"], "stop": 0.02}])
    run = build_atm(config, algorithm_factory=PhantomAlgorithm)
    assert run.net.sessions["stays"].source.active
    assert not run.net.sessions["leaves"].source.active
    assert run.net.sessions["leaves"].rate_probe.value_at(0.049) == 0.0


def test_onoff_stream_defaults_to_the_generated_name():
    def onoff(**stream):
        session = {"vc": "b", "route": ["S1", "S2"],
                   "onoff": {"on": 0.005, "off": 0.005, **stream}}
        run = build_atm(dict(ONE_TRUNK, sessions=[session]),
                        algorithm_factory=PhantomAlgorithm, seed=4)
        return run.net.sessions["b"].rate_probe.values

    assert onoff() == onoff(stream="onoff.b")
    assert onoff() != onoff(stream="b")


def test_stop_cannot_combine_with_onoff():
    config = dict(ONE_TRUNK, sessions=[
        {"vc": "b", "route": ["S1", "S2"], "stop": 0.02,
         "onoff": {"on": 0.01, "off": 0.01}}])
    assert validate_config(config) == [
        "sessions[0] cannot combine 'onoff' with 'stop'"]
