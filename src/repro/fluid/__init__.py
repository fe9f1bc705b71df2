"""Fluid/hybrid simulation tier: Phantom dynamics as rate processes.

Where the packet tier (:mod:`repro.atm`) schedules every cell, this tier
steps difference equations per Δt — sources as rate columns, the port's
MACR/residual update on aggregates, queues as integrals of (arrival −
service) — so the cost per trunk is independent of how many flows it
carries.  A million flows step as fast as ten.

Three entry surfaces:

* :mod:`repro.fluid.scenarios` — :func:`build_fluid`, which renders the
  scenario configs the packet tier runs (the paper's configurations
  among them), plus the million-flow scale scenario;
* :mod:`repro.fluid.hybrid` — packet foreground coupled to a fluid
  background per trunk (imported lazily: it pulls in the event kernel);
* :mod:`repro.fluid.validate` — the committed packet-vs-fluid accuracy
  contract (see docs/FLUID.md for equations and tolerances).
"""

from repro.fluid.model import FlowCohort, FluidNetwork, FluidTrunk
from repro.fluid.results import FluidRun, HybridRun
from repro.fluid.scenarios import MANY_FLOW_PHANTOM, build_fluid, many_flows
from repro.fluid.stepper import (CELL_BITS, FlowGroup, cells_to_mbps,
                                 rate_cells_per_interval)

__all__ = [
    "CELL_BITS",
    "MANY_FLOW_PHANTOM",
    "FlowCohort",
    "FlowGroup",
    "FluidNetwork",
    "FluidRun",
    "FluidTrunk",
    "HybridRun",
    "build_fluid",
    "cells_to_mbps",
    "many_flows",
    "rate_cells_per_interval",
]
