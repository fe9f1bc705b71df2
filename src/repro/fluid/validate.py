"""Packet-vs-fluid validation: the fluid tier's accuracy contract.

Every row of :data:`CASES` is one scenario config, rendered under
Phantom on both tiers (:func:`repro.scenarios.generic.build_atm` and
:func:`repro.fluid.scenarios.build_fluid`) and compared metric by
metric — steady per-session rates, Jain index, utilisation, queue
bounds.  The tolerances below are *committed*: they were measured once
(see docs/FLUID.md for the full table and the reasoning behind each
band) and the suite fails when the models drift apart further than
that.

Two tolerance regimes:

* **greedy** configurations converge to the Phantom fixed point in both
  models; the residual gap is packet-side quantisation (cell-granular
  residual metering through the asymmetric MACR filter reads a few
  percent under the fluid fixed point), so the band is tight;
* **bursty** configurations (E02 on/off) compare *different stochastic
  realisations* — the fluid cohort draws its exponential phases from
  the same named streams but integrates them as rates — so only the
  time-average allocation is comparable, with a wide band.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from repro.core import PhantomAlgorithm
from repro.fluid.scenarios import build_fluid
from repro.scenarios.atm import (onoff_config, parking_config,
                                 staggered_config, transient_config)
from repro.scenarios.generic import build_atm

#: Committed accuracy bands, measured at the default configurations
#: below (see docs/FLUID.md for the validation table).
TOLERANCES: dict[str, float] = {
    # greedy steady rates: packet vs fluid, relative
    "greedy_rate_rel": 0.08,
    # greedy steady rates under RM loss: the packet loop converges via
    # the Trm backstop with extra jitter, relative
    "loss_rate_rel": 0.12,
    # on/off time-average rates: different stochastic realisations,
    # relative
    "bursty_rate_rel": 0.25,
    # Jain index over steady rates, absolute
    "jain_abs": 0.05,
    # Jain index over bursty steady rates: inherits the realisation
    # spread of the underlying rates, absolute
    "bursty_jain_abs": 0.10,
    # bottleneck utilisation over the steady window, absolute
    "utilization_abs": 0.06,
    # bottleneck queue peak over the whole run, absolute cells — a
    # boundedness check, not a trajectory match (packet queues are
    # cell-granular, fluid queues are integrals)
    "queue_abs_cells": 250.0,
}


def _row(scenario: str, metric: str, packet_value: float,
         fluid_value: float, tolerance_key: str) -> dict[str, Any]:
    tolerance = TOLERANCES[tolerance_key]
    if tolerance_key.endswith("_rel"):
        scale = max(abs(packet_value), 1e-12)
        error = abs(fluid_value - packet_value) / scale
    else:
        error = abs(fluid_value - packet_value)
    return {
        "scenario": scenario,
        "metric": metric,
        "packet": packet_value,
        "fluid": fluid_value,
        "error": error,
        "tolerance": tolerance,
        "tolerance_key": tolerance_key,
        "ok": error <= tolerance,
    }


def _common_rows(scenario: str, packet_run, fluid_run,
                 rate_tolerance: str) -> list[dict[str, Any]]:
    """Rate / fairness / utilisation / queue rows shared by every pair.

    Both handles' utilisation counts the sessions crossing the
    bottleneck.
    """
    rows = []
    packet_rates = packet_run.steady_rates()
    fluid_rates = fluid_run.steady_rates()
    if set(packet_rates) != set(fluid_rates):
        raise ValueError(
            f"{scenario}: session names diverge between models: "
            f"{sorted(packet_rates)} vs {sorted(fluid_rates)}")
    for name in sorted(packet_rates):
        rows.append(_row(scenario, f"rate.{name}", packet_rates[name],
                         fluid_rates[name], rate_tolerance))
    jain_tolerance = ("bursty_jain_abs"
                      if rate_tolerance == "bursty_rate_rel"
                      else "jain_abs")
    rows.append(_row(scenario, "jain", packet_run.jain(),
                     fluid_run.jain(), jain_tolerance))
    rows.append(_row(scenario, "utilization", packet_run.utilization(),
                     fluid_run.utilization(), "utilization_abs"))
    rows.append(_row(scenario, "queue.max",
                     packet_run.queue_stats()["max"],
                     fluid_run.queue_stats()["max"], "queue_abs_cells"))
    return rows


class Case(NamedTuple):
    """One validation row: a config, and how its two renderings are
    compared."""

    config: Mapping[str, Any]
    #: Tolerance key of the per-session rate rows.
    rate_band: str
    #: Seed of both renderings (on/off phases, RM-loss coin flips).
    seed: int = 0


#: The validation table, measured at these configurations.  Greedy
#: configurations converge to the Phantom fixed point in both models;
#: the on/off row compares time-average allocations across
#: realisations; under RM loss (live on the packet side, thinned
#: feedback mass on the fluid side) both loops must hold the lossless
#: fixed point.
CASES: dict[str, Case] = {
    "e01_staggered_n2": Case(staggered_config(n_sessions=2),
                             "greedy_rate_rel"),
    "e01_staggered_n5": Case(staggered_config(n_sessions=5, duration=0.3),
                             "greedy_rate_rel"),
    "e02_onoff_seed7": Case(onoff_config(duration=0.5), "bursty_rate_rel",
                            seed=7),
    "e05_parking_3hop": Case(parking_config(hops=3), "greedy_rate_rel"),
    "transient": Case(transient_config(), "greedy_rate_rel"),
    "rm_loss_0.01": Case(dict(staggered_config(duration=0.4),
                              rm_loss=0.01), "loss_rate_rel"),
}


def compare(name: str) -> list[dict[str, Any]]:
    """Render the case ``name`` on both tiers; one row per metric."""
    case = CASES[name]
    packet = build_atm(case.config, algorithm_factory=PhantomAlgorithm,
                       seed=case.seed)
    fluid = build_fluid(case.config, seed=case.seed)
    return _common_rows(name, packet, fluid, case.rate_band)


def validation_rows() -> list[dict[str, Any]]:
    """Every row of the validation table."""
    return [row for name in CASES for row in compare(name)]


def failures(rows: list[dict[str, Any]]) -> list[str]:
    """Human-readable description of every out-of-tolerance row."""
    return [
        f"{row['scenario']}.{row['metric']}: packet {row['packet']:.4g} "
        f"vs fluid {row['fluid']:.4g} — error {row['error']:.4g} > "
        f"{row['tolerance_key']} {row['tolerance']:g}"
        for row in rows if not row["ok"]
    ]


__all__ = ["CASES", "Case", "TOLERANCES", "compare", "failures",
           "validation_rows"]
