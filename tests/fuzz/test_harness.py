"""Property harness: eligibility gates, settled-ACR windows,
classification of synthetic results, batch judging."""

import pytest

from repro.exec.pool import ExecResult
from repro.exec.spec import TaskSpec
from repro.fuzz.harness import (CLASS_CRASH, CLASS_PASS, CLASS_TIMEOUT,
                                CLASS_VIOLATED, _window_mean,
                                classify_result, judge_batch,
                                oracle_eligibility)
from repro.obs.health import _oracle_reason
from repro.obs.monitor import PASS, VIOLATED, check


def eligible_config(**overrides):
    """A config squarely inside the oracle-eligible region."""
    config = {
        "family": "dumbbell",
        "switches": ["S1", "S2"],
        "trunks": [{"a": "S1", "b": "S2"}],
        "link_rate": 150.0,
        "algorithm": "phantom",
        "algorithm_params": {"utilization_factor": 5.0},
        "duration": 0.25,
        "sessions": [{"vc": "s0", "route": ["S1", "S2"]},
                     {"vc": "s1", "route": ["S1", "S2"]}],
    }
    config.update(overrides)
    return config


# ----------------------------------------------------------------------
# eligibility gates
# ----------------------------------------------------------------------

def test_eligible_config_has_no_reason():
    assert oracle_eligibility(eligible_config()) is None


@pytest.mark.parametrize("overrides,needle", [
    ({"algorithm": "erica"}, "erica"),
    ({"algorithm_params": {"alpha_dec": 0.25}}, "alpha_dec"),
    ({"algorithm_params": {"utilization_factor": 20.0}}, "20"),
    ({"vbr": [{"vc": "v0"}]}, "cross-traffic"),
    ({"cbr": [{"vc": "c0"}]}, "cross-traffic"),
    ({"rm_loss": 0.01}, "RM-loss"),
    ({"sessions": [{"vc": "s0", "route": ["S1", "S2"],
                    "onoff": {"on": 0.01, "off": 0.01}}]}, "on/off"),
    ({"sessions": [{"vc": "s0", "route": ["S1", "S2"],
                    "access_delay": 0.005}]}, "feedback delay"),
    ({"duration": 0.05, "algorithm_params":
      {"utilization_factor": 5.0, "interval": 2e-3}}, "control interval"),
    ({"link_rate": 100.0,
      "trunks": [{"a": "S1", "b": "S2", "rate": 150.0}]},
     "access-limited"),
])
def test_gate_reasons(overrides, needle):
    reason = oracle_eligibility(eligible_config(**overrides))
    assert reason is not None and needle in reason


def test_paper_configs_are_judged_where_the_oracle_applies():
    from repro.scenarios.atm import (background_config, onoff_config,
                                     parking_config, staggered_config,
                                     transient_config)

    assert oracle_eligibility(staggered_config()) is None
    assert oracle_eligibility(parking_config()) is None
    assert "leaves mid-run" in oracle_eligibility(transient_config())
    assert "on/off" in oracle_eligibility(onoff_config())
    assert "cross-traffic" in oracle_eligibility(background_config())


@pytest.mark.parametrize("knobs", [
    {"use_deviation": True},
    {"use_deviation": False},
    {"interval": 5e-4, "utilization_factor": 8.0},
    {"alpha_dec": 0.25},
])
def test_gates_agree_with_the_health_report(knobs):
    # one gate table: the same algorithm overrides get the same answer
    # on a generated config and on a curated scenario
    health = _oracle_reason("atm.staggered", {"algorithm": "phantom",
                                              "algorithm_params": knobs},
                            "atm")
    assert oracle_eligibility(eligible_config(algorithm_params=knobs)) \
        == health


def test_gate_on_shares_below_the_grant_floor():
    # 40 sessions at f=5 share 150/(40 + 0.2) ≈ 3.7 Mb/s, under the 5%
    # grant floor of 7.5 — the law cannot express the oracle's answer
    crowd = [{"vc": f"s{i}", "route": ["S1", "S2"]} for i in range(40)]
    reason = oracle_eligibility(eligible_config(sessions=crowd))
    assert reason is not None and "grant floor" in reason


# ----------------------------------------------------------------------
# settled windows
# ----------------------------------------------------------------------

def test_window_mean_weighs_holding_times():
    # value 10 holds over [0, 0.5), 20 over [0.5, 1.0): mean 15 across
    # the whole window, 20 across the late half
    times, values = [0.0, 0.5], [10.0, 20.0]
    assert _window_mean(times, values, 0.0, 1.0) \
        == pytest.approx(15.0)
    assert _window_mean(times, values, 0.5, 1.0) \
        == pytest.approx(20.0)
    assert _window_mean(times, values, 0.75, 1.0) \
        == pytest.approx(20.0)


def test_window_mean_empty_series():
    assert _window_mean([], [], 0.0, 1.0) == 0.0


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def _spec(config=None, probes=()):
    return TaskSpec(task_id="t", scenario="fuzz.generic", seed=1,
                    probes=probes, config=config)


def _flat_series(config, level):
    return {f"{s['vc']}.acr": {"times": [0.0], "values": [level]}
            for s in config["sessions"]}


def _result(config, checks=(), series=None, status="ok",
            error=None, probes=None):
    payload = None
    if status == "ok":
        payload = {"health": {"checks": list(checks)},
                   "series": series or {}}
    if probes is None:
        probes = tuple(f"{s['vc']}.acr" for s in config["sessions"])
    return ExecResult(spec=_spec(config, probes), status=status,
                      payload=payload, error=error)


def test_timeout_and_crash_short_circuit():
    config = eligible_config()
    timed = classify_result(_result(config, status="timeout",
                                    error="over budget"))
    assert timed["classification"] == CLASS_TIMEOUT
    crashed = classify_result(_result(config, status="error",
                                      error="builder rejected"))
    assert crashed["classification"] == CLASS_CRASH
    assert crashed["detail"] == "builder rejected"


def test_violated_health_check_dominates():
    config = eligible_config()
    judgment = classify_result(_result(
        config, checks=[check("conservation", VIOLATED)],
        series=_flat_series(config, 150 / 2.2)))
    assert judgment["classification"] == CLASS_VIOLATED
    assert judgment["checks"] == ["conservation"]


def test_settled_on_oracle_passes():
    config = eligible_config()
    judgment = classify_result(_result(
        config, checks=[check("conservation", PASS)],
        series=_flat_series(config, 150 / 2.2)))
    assert judgment["classification"] == CLASS_PASS
    assert judgment["oracle"]["s0"] == pytest.approx(150 / 2.2)
    assert "oracle_skipped" not in judgment


def test_settled_at_the_wrong_value_is_a_violation():
    # flat (zero drift) but 30% away from the fair share: the run is
    # settled, just unfair — exactly what the ε-band must catch
    config = eligible_config()
    judgment = classify_result(_result(
        config, series=_flat_series(config, 0.7 * 150 / 2.2)))
    assert judgment["classification"] == CLASS_VIOLATED
    assert judgment["checks"] == ["oracle_gap"]


def test_still_ramping_skips_the_band():
    # ACR doubles between the two comparison windows → not settled
    config = eligible_config(duration=1.0)
    series = {f"{s['vc']}.acr":
              {"times": [0.0, 0.75], "values": [40.0, 80.0]}
              for s in config["sessions"]}
    judgment = classify_result(_result(config, series=series))
    assert judgment["classification"] == CLASS_PASS
    assert "ramping" in judgment["oracle_skipped"]


def test_missing_probe_series_skips_the_band():
    config = eligible_config()
    judgment = classify_result(_result(config, series={}, probes=()))
    assert judgment["classification"] == CLASS_PASS
    assert "no ACR series" in judgment["oracle_skipped"]


def test_ineligible_config_reports_why():
    config = eligible_config(algorithm="erica")
    judgment = classify_result(_result(config))
    assert judgment["classification"] == CLASS_PASS
    assert "erica" in judgment["oracle_skipped"]


def test_judge_batch_counts_and_failing_index():
    config = eligible_config()
    results = [
        _result(config, series=_flat_series(config, 150 / 2.2)),
        _result(config, checks=[check("queue_bound", VIOLATED)],
                series=_flat_series(config, 150 / 2.2)),
        _result(config, status="error", error="boom"),
    ]
    summary = judge_batch(results)
    assert summary["counts"] == {"pass": 1, "violated": 1, "crash": 1,
                                 "timeout": 0}
    assert set(summary["failing"]) == {"t"}
    assert summary["oracle_checked"] == 2
