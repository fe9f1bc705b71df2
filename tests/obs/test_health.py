"""HealthReports: oracle gating, per-tier checks, validation, merging."""

import pytest

from repro.core import PhantomAlgorithm
from repro.fluid.scenarios import build_fluid
from repro.obs.health import (CHECK_NAMES, HEALTH_SCHEMA, HEALTH_VERSION,
                              MAX_ORACLE_FACTOR, ORACLE_CHECKS,
                              SUITE_HEALTH_SCHEMA, build_health,
                              merge_health, oracle_allocation,
                              validate_health, verdict_of)
from repro.obs.monitor import NOT_APPLICABLE, PASS, VIOLATED, check
from repro.scenarios import build_atm, staggered_config
from repro.scenarios.tcp import build_tcp, drop_tail_policy, rtt_config

E01_SHARE = 150.0 / 2.2   # 2 sessions + 1/5 phantom at 150 Mb/s


def fluid_staggered(duration, **options):
    return build_fluid(staggered_config(duration=duration), **options)


@pytest.fixture(scope="module")
def e01_run():
    return build_atm(staggered_config(), algorithm_factory=PhantomAlgorithm)


@pytest.fixture(scope="module")
def e01_fluid():
    return fluid_staggered(duration=0.25)


def names_verdicts(report):
    return [(c["name"], c["verdict"]) for c in report["checks"]]


def oracle_verdicts(report):
    return {c["name"]: c["verdict"] for c in report["checks"]
            if c["name"] in ORACLE_CHECKS}


def oracle_reason(report):
    for c in report["checks"]:
        if c["name"] in ORACLE_CHECKS:
            return c["evidence"]["reason"]
    raise AssertionError("no oracle check in report")


# ----------------------------------------------------------------------
# the tentpole acceptance: E01 passes everything, both tiers
# ----------------------------------------------------------------------

def test_e01_packet_health_all_pass(e01_run):
    report = build_health(e01_run, scenario="atm.staggered", params={})
    assert report["schema"] == HEALTH_SCHEMA
    assert report["version"] == HEALTH_VERSION
    assert report["verdict"] == PASS
    assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)
    assert all(c["verdict"] == PASS for c in report["checks"])
    assert report["oracle"]["s0"] == pytest.approx(E01_SHARE)
    assert report["oracle"]["s1"] == pytest.approx(E01_SHARE)
    assert validate_health(report) == []


def test_e01_fluid_health_all_pass(e01_fluid):
    report = build_health(e01_fluid, scenario="fluid.staggered",
                          params={})
    assert report["verdict"] == PASS
    assert all(c["verdict"] == PASS for c in report["checks"])
    assert report["oracle"]["s0"] == pytest.approx(E01_SHARE)


def test_oracle_allocation_matches_paper_equilibrium(e01_run, e01_fluid):
    assert oracle_allocation(e01_run) == {
        "s0": pytest.approx(E01_SHARE), "s1": pytest.approx(E01_SHARE)}
    assert oracle_allocation(e01_fluid) == {
        "s0": pytest.approx(E01_SHARE), "s1": pytest.approx(E01_SHARE)}


def test_fluid_oracle_is_per_flow():
    # 3 flows/session x 2 sessions water-fill against one phantom
    # share: 150 / 6.2 per flow, not a third of the cohort share
    run = fluid_staggered(duration=0.06, flows_per_session=3)
    alloc = oracle_allocation(run)
    assert alloc["s0"] == pytest.approx(150.0 / 6.2)


# ----------------------------------------------------------------------
# oracle gates: when the equilibrium argument does not apply
# ----------------------------------------------------------------------

def test_gate_no_scenario_name(e01_run):
    report = build_health(e01_run)
    assert set(oracle_verdicts(report).values()) == {NOT_APPLICABLE}
    assert "no scenario name" in oracle_reason(report)
    # conservation and queue bounds still judged, so the fold is pass
    assert report["verdict"] == PASS
    assert "oracle" not in report


def test_gate_bursty_scenario(e01_run):
    report = build_health(e01_run, scenario="atm.onoff", params={})
    assert "no steady greedy" in oracle_reason(report)


def test_gate_baseline_algorithm(e01_run):
    report = build_health(e01_run, scenario="atm.staggered",
                          params={"algorithm": "erica"})
    assert "'erica'" in oracle_reason(report)


def test_gate_non_rescaling_ablation(e01_run):
    report = build_health(e01_run, scenario="atm.staggered",
                          params={"algorithm": "phantom",
                                  "algorithm_params": {"beta": 0.5}})
    assert "departs from the paper's filter" in oracle_reason(report)


def test_rescaling_ablation_keeps_its_oracle(e01_run):
    report = build_health(
        e01_run, scenario="atm.staggered",
        params={"algorithm": "phantom",
                "algorithm_params": {"utilization_factor": 5.0,
                                     "use_deviation": True}})
    assert "oracle" in report
    assert set(oracle_verdicts(report).values()) == {PASS}


def test_gate_aggressive_factor():
    from repro.core import PhantomParams

    run = fluid_staggered(duration=0.1,
                          phantom=PhantomParams(utilization_factor=15.0))
    report = build_health(run, scenario="fluid.staggered", params={})
    assert f"> {MAX_ORACLE_FACTOR:g}" in oracle_reason(report)


def test_gate_short_horizon():
    run = fluid_staggered(duration=0.02)
    report = build_health(run, scenario="fluid.staggered", params={})
    assert "under 50 control intervals" in oracle_reason(report)


def test_gate_fluid_grant_floor():
    # 100 flows/session: per-flow share 0.68 Mb/s sits under the
    # 0.05 x 150 = 7.5 Mb/s grant floor, so the band is unreachable
    run = fluid_staggered(duration=0.06, flows_per_session=100)
    report = build_health(run, scenario="fluid.staggered", params={})
    assert "below the grant floor" in oracle_reason(report)


def test_gate_fluid_binary_mode_and_rm_loss(e01_fluid):
    report = build_health(e01_fluid, scenario="fluid.staggered",
                          params={"mode": "binary"})
    assert "binary feedback" in oracle_reason(report)
    report = build_health(e01_fluid, scenario="fluid.staggered",
                          params={"rm_loss": 0.2})
    assert "RM-loss" in oracle_reason(report)


# ----------------------------------------------------------------------
# the other tiers
# ----------------------------------------------------------------------

def test_tcp_health_judges_counters_not_rates():
    run = build_tcp(rtt_config(duration=5.0),
                    policy_factory=drop_tail_policy())
    report = build_health(run, scenario="tcp.rtt", params={})
    verdicts = dict(names_verdicts(report))
    assert verdicts["conservation"] == PASS
    assert verdicts["queue_bound"] == PASS
    assert set(oracle_verdicts(report).values()) == {NOT_APPLICABLE}
    assert "no settled explicit rate" in oracle_reason(report)
    assert report["verdict"] == PASS


def test_hybrid_health_folds_both_ledgers():
    from repro.fluid.hybrid import hybrid_staggered

    run = hybrid_staggered(duration=0.1)
    report = build_health(run, scenario="hybrid.staggered", params={})
    names = [c["name"] for c in report["checks"]]
    assert names[:4] == ["conservation", "queue_bound",
                         "conservation.fluid", "queue_bound.fluid"]
    verdicts = dict(names_verdicts(report))
    assert verdicts["conservation"] == PASS
    assert verdicts["conservation.fluid"] == PASS
    assert verdicts["queue_bound.fluid"] == PASS
    assert "fluid background" in oracle_reason(report)
    assert validate_health(report) == []


def test_build_health_never_raises():
    class Broken:
        @property
        def net(self):
            raise RuntimeError("boom")

    report = build_health(Broken(), scenario="atm.staggered")
    assert report["verdict"] == NOT_APPLICABLE
    (entry,) = report["checks"]
    assert entry["name"] == "monitor_error"
    assert "RuntimeError: boom" in entry["evidence"]["error"]
    assert validate_health(report) == []


# ----------------------------------------------------------------------
# verdict algebra, validation, suite merge
# ----------------------------------------------------------------------

def test_verdict_of_is_worst_of():
    p = check("a", PASS)
    v = check("b", VIOLATED)
    n = check("c", NOT_APPLICABLE)
    assert verdict_of([p, n]) == PASS
    assert verdict_of([p, v, n]) == VIOLATED
    assert verdict_of([n, n]) == NOT_APPLICABLE


def test_validate_health_catches_malformed_reports():
    assert validate_health("nope") == ["health report is not an object"]
    good = {"schema": HEALTH_SCHEMA, "version": HEALTH_VERSION,
            "scenario": None, "eps": 0.05, "verdict": PASS,
            "checks": [check("conservation", PASS)]}
    assert validate_health(good) == []
    bad = dict(good, schema="other", version=99)
    problems = validate_health(bad)
    assert any("schema" in p for p in problems)
    assert any("version" in p for p in problems)
    assert validate_health(dict(good, checks=[])) == \
        ["checks must be a non-empty list"]
    lying = dict(good, verdict=VIOLATED)
    assert any("does not fold" in p for p in validate_health(lying))
    mangled = dict(good, checks=[{"name": 3, "verdict": "meh",
                                  "first_violation_ts": "soon",
                                  "evidence": None}])
    assert len(validate_health(mangled)) == 4


def test_merge_health_counts_and_names_violators():
    ok = {"verdict": PASS,
          "checks": [check("conservation", PASS),
                     check("convergence", PASS)]}
    sick = {"verdict": VIOLATED,
            "checks": [check("conservation", VIOLATED),
                       check("convergence", NOT_APPLICABLE)]}
    merged = merge_health({"E01": ok, "E07": sick})
    assert merged["schema"] == SUITE_HEALTH_SCHEMA
    assert merged["runs"] == 2
    assert merged["verdict"] == VIOLATED
    assert merged["verdicts"] == {PASS: 1, VIOLATED: 1,
                                  NOT_APPLICABLE: 0}
    assert merged["checks"]["conservation"] == {
        PASS: 1, VIOLATED: 1, NOT_APPLICABLE: 0}
    assert merged["violated"] == {"E07": ["conservation"]}


def test_merge_health_all_pass_is_pass():
    ok = {"verdict": PASS, "checks": [check("conservation", PASS)]}
    merged = merge_health({"E01": ok})
    assert merged["verdict"] == PASS
    assert merged["violated"] == {}
