"""Packet-vs-fluid validation: the committed tolerance contract.

Each test renders one row of :data:`repro.fluid.validate.CASES` on
both tiers, at the configuration the tolerances were measured at, and
asserts every compared metric stays inside its band (the table is
committed in docs/FLUID.md).  Split per row so a drift names the
configuration that moved.
"""

from __future__ import annotations

import pytest

from repro.fluid import validate


def _assert_rows_ok(rows):
    problems = validate.failures(rows)
    assert problems == [], "\n".join(problems)


def test_e01_two_sessions_within_tolerance():
    _assert_rows_ok(validate.compare("e01_staggered_n2"))


def test_e01_five_sessions_within_tolerance():
    _assert_rows_ok(validate.compare("e01_staggered_n5"))


def test_e02_onoff_within_tolerance():
    _assert_rows_ok(validate.compare("e02_onoff_seed7"))


def test_e05_parking_within_tolerance():
    _assert_rows_ok(validate.compare("e05_parking_3hop"))


def test_transient_within_tolerance():
    _assert_rows_ok(validate.compare("transient"))


def test_rm_loss_within_tolerance():
    """Includes live loss injection on the packet side (proven to drop
    cells by tests/scenarios/test_generic.py)."""
    _assert_rows_ok(validate.compare("rm_loss_0.01"))


def test_rows_carry_the_committed_tolerances():
    rows = validate.compare("e01_staggered_n2")
    for row in rows:
        assert row["tolerance"] == \
            validate.TOLERANCES[row["tolerance_key"]]
    metrics = {row["metric"] for row in rows}
    assert {"rate.s0", "rate.s1", "jain", "utilization",
            "queue.max"} <= metrics


def test_failures_format_names_the_offender():
    row = {"scenario": "x", "metric": "rate.s0", "packet": 1.0,
           "fluid": 2.0, "error": 1.0, "tolerance": 0.1,
           "tolerance_key": "greedy_rate_rel", "ok": False}
    (message,) = validate.failures([row])
    assert "x.rate.s0" in message and "greedy_rate_rel" in message


def test_diverging_session_names_are_an_error():
    """Guards the name-for-name pairing the whole suite rests on."""
    from repro.core import PhantomAlgorithm
    from repro.fluid.scenarios import build_fluid
    from repro.scenarios.atm import staggered_config
    from repro.scenarios.generic import build_atm

    p = build_atm(staggered_config(n_sessions=2, duration=0.05),
                  algorithm_factory=PhantomAlgorithm)
    f = build_fluid(staggered_config(n_sessions=3, duration=0.05))
    with pytest.raises(ValueError, match="diverge"):
        validate._common_rows("mismatch", p, f, "greedy_rate_rel")
