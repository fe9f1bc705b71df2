"""Perf workloads: the hot-path configurations the kernel is tuned on.

Each workload is a scaled-down twin of one figure-regeneration benchmark
(E01, E02, E11 of DESIGN.md's index) chosen to stress a different part of
the per-cell hot path:

* ``e01_staggered`` — two greedy ABR sessions on one Phantom trunk: the
  dense-heap case (cells every ~2.8 µs of simulated time) where engine
  scheduling overhead dominates;
* ``e02_onoff`` — greedy + bursty on/off sessions: exercises timer
  cancellation, idle/busy transitions of the port transmitter, and the
  RNG-driven workload path;
* ``e11_tcp`` — Reno flows through one drop-tail bottleneck: the packet
  twin (variable serialization times, ACK clocking, retransmit timers).

Every workload takes a single ``scale`` knob multiplying the simulated
horizon, so the same configuration serves the committed baseline
(``scale=1``), the CI smoke job (``scale<1``), and the golden-trace
determinism fixtures.  Workloads are **closed**: fixed seeds, fixed
topology, no wall-clock inputs — two runs of the same workload must be
bit-identical (see :mod:`repro.perf.golden`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core import PhantomAlgorithm
from repro.scenarios.atm import onoff_config, staggered_config
from repro.scenarios.generic import build_atm
from repro.scenarios.tcp import build_tcp, drop_tail_policy, many_config

#: Smallest scale at which every workload is still well-formed (E01's
#: session stagger must fall inside the simulated horizon).
MIN_SCALE = 0.15


@dataclass(frozen=True)
class Workload:
    """One named perf configuration."""

    name: str
    description: str
    #: Simulated horizon at ``scale=1`` (seconds).
    sim_seconds: float
    #: ``scale -> run handle`` (an AtmRun or TcpRun, already executed).
    #: Accepts an optional ``tracer`` keyword (a
    #: :class:`repro.obs.Tracer`) for instrumented runs.
    build_and_run: Callable[..., Any]
    #: ``run handle -> cells (or packets) pushed through the bottleneck``.
    cells: Callable[[Any], int]


def _check_scale(scale: float) -> float:
    if scale < MIN_SCALE:
        raise ValueError(
            f"scale must be >= {MIN_SCALE} (got {scale!r}); below that the "
            "E01 stagger falls outside the simulated horizon")
    return scale


def _run_e01(scale: float, tracer=None):
    return build_atm(staggered_config(duration=0.25 * _check_scale(scale)),
                     algorithm_factory=PhantomAlgorithm, tracer=tracer)


def _run_e02(scale: float, tracer=None):
    return build_atm(onoff_config(duration=0.4 * _check_scale(scale)),
                     algorithm_factory=PhantomAlgorithm, seed=7,
                     tracer=tracer)


def _run_e11(scale: float, tracer=None):
    return build_tcp(many_config(n_flows=4,
                                 duration=25.0 * _check_scale(scale)),
                     policy_factory=drop_tail_policy(), tracer=tracer)


def _atm_cells(run) -> int:
    """Cells through the bottleneck port (arrivals include drops)."""
    return run.bottleneck.arrivals


def _tcp_packets(run) -> int:
    return run.bottleneck.arrivals


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="e01_staggered",
            description="two greedy ABR sessions, one Phantom trunk "
                        "(E01-shaped; dense event heap)",
            sim_seconds=0.25,
            build_and_run=_run_e01,
            cells=_atm_cells,
        ),
        Workload(
            name="e02_onoff",
            description="greedy + 2 on/off ABR sessions under Phantom "
                        "(E02-shaped; timer cancels, idle transitions)",
            sim_seconds=0.4,
            build_and_run=_run_e02,
            cells=_atm_cells,
        ),
        Workload(
            name="e11_tcp",
            description="4 Reno flows through one drop-tail bottleneck "
                        "(E11-shaped; packet hot path)",
            sim_seconds=25.0,
            build_and_run=_run_e11,
            cells=_tcp_packets,
        ),
    )
}
