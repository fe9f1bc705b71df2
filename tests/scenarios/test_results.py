"""Tests for the scenario run handles (AtmRun / TcpRun helpers)."""

import pytest

from repro.core import PhantomAlgorithm
from repro.exec import TaskSpec
from repro.exec.worker import execute_task
from repro.scenarios import build_atm, staggered_config
from repro.scenarios.tcp import (build_tcp, drop_tail_policy, many_config,
                                 two_way_config)


@pytest.fixture(scope="module")
def atm_run():
    return build_atm(staggered_config(n_sessions=2, duration=0.15),
                     algorithm_factory=PhantomAlgorithm)


@pytest.fixture(scope="module")
def tcp_run():
    return build_tcp(many_config(n_flows=2, duration=5.0),
                     policy_factory=drop_tail_policy())


def test_atm_steady_window(atm_run):
    start, end = atm_run.steady_window()
    assert end == atm_run.duration
    assert start == pytest.approx(0.75 * atm_run.duration)
    start_half, _ = atm_run.steady_window(fraction=0.5)
    assert start_half == pytest.approx(0.5 * atm_run.duration)


def test_atm_steady_rates_keys(atm_run):
    rates = atm_run.steady_rates()
    assert set(rates) == {"s0", "s1"}
    assert all(r > 0 for r in rates.values())


def test_atm_jain_and_utilization(atm_run):
    assert 0.9 < atm_run.jain() <= 1.0
    assert 0.5 < atm_run.utilization() < 1.0


def test_atm_queue_stats_keys(atm_run):
    stats = atm_run.queue_stats()
    assert set(stats) == {"max", "mean", "final"}
    assert stats["max"] >= stats["mean"] >= 0


def test_atm_probes_accessible(atm_run):
    assert atm_run.macr_probe is not None
    assert len(atm_run.macr_probe) > 10
    assert len(atm_run.queue_probe) > 0


def test_tcp_goodputs_and_total(tcp_run):
    rates = tcp_run.goodputs()
    assert set(rates) == {"f0", "f1"}
    assert tcp_run.total_goodput() == pytest.approx(sum(rates.values()))


def test_tcp_jain(tcp_run):
    assert 0.5 < tcp_run.jain() <= 1.0


def test_tcp_queue_stats(tcp_run):
    stats = tcp_run.queue_stats()
    assert stats["max"] >= stats["mean"]


def test_tcp_macr_probe_absent_for_droptail(tcp_run):
    assert tcp_run.macr_probe is None


def test_two_way_builder_names_and_symmetry():
    run = build_tcp(two_way_config(flows_per_direction=1, duration=5.0),
                    policy_factory=drop_tail_policy())
    rates = run.goodputs()
    assert set(rates) == {"east0", "west0"}
    assert min(rates.values()) > 0
    with pytest.raises(ValueError):
        two_way_config(flows_per_direction=0)


def test_parking_lot_utilization_counts_only_bottleneck_sessions():
    # E04 as the worker reduces it: the long session and cross0 cross
    # the reported trunk, cross1 and cross2 do not
    payload = execute_task({"spec": TaskSpec(
        task_id="E04", scenario="atm.parking").to_dict()})
    assert payload["status"] == "ok", payload.get("error")
    utilization = payload["metrics"]["utilization"]
    assert 0.5 < utilization <= 1.0
