"""Discrete-event simulation kernel.

This package is the substrate that replaces BONeS, the commercial
block-oriented simulator the paper used.  It is deliberately generic: the
kernel knows nothing about cells, packets, or flow control.  Higher layers
(:mod:`repro.atm`, :mod:`repro.tcp`) build network components out of the
primitives here.

Contents
--------
:class:`Simulator`
    The event loop: a time-ordered heap of callbacks with deterministic
    tie-breaking.
:class:`Event`
    Handle returned by :meth:`Simulator.schedule`, usable to cancel.
:class:`PeriodicTimer`
    Fixed-interval callback driver (used for measurement intervals).
:class:`Probe`
    Time-series recorder for simulation output.
:class:`RngStreams`
    Named, independently seeded random streams for reproducible workloads.
:mod:`repro.sim.units`
    ATM/TCP unit helpers (cells, Mb/s, cell times); a submodule, so
    ``from repro.sim import units`` imports it.
"""

import importlib
from typing import TYPE_CHECKING

# Exports resolve on first use (PEP 562), so the fluid tier can use the
# probes and units without loading the event kernel; see
# repro/__init__.py.
if TYPE_CHECKING:
    from repro.sim.engine import Event, SimulationError, Simulator
    from repro.sim.probe import Probe, StepProbe
    from repro.sim.rng import RngStreams
    from repro.sim.timers import PeriodicTimer

#: Public name -> the module it is imported from on first use.
_EXPORTS = {name: module for module, names in {
    "repro.sim.engine": ("Event", "SimulationError", "Simulator"),
    "repro.sim.probe": ("Probe", "StepProbe"),
    "repro.sim.rng": ("RngStreams",),
    "repro.sim.timers": ("PeriodicTimer",),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
