"""Phantom — the paper's primary contribution.

Explicit-rate and binary-feedback variants of the constant-space flow
control algorithm, its MACR filter and residual meter, the closed-form
equilibrium, and max-min fairness reference solvers.
"""

import importlib
from typing import TYPE_CHECKING

# Exports resolve on first use (PEP 562); see repro/__init__.py.
if TYPE_CHECKING:
    from repro.core.fairness import max_min_allocation, phantom_allocation
    from repro.core.macr import MacrFilter
    from repro.core.model import LoopTrace, PhantomLoopModel
    from repro.core.params import DEFAULT_PHANTOM_PARAMS, PhantomParams
    from repro.core.phantom import (PhantomAlgorithm,
                                    phantom_equilibrium_rate,
                                    phantom_equilibrium_utilization)
    from repro.core.phantom_binary import BinaryPhantomAlgorithm
    from repro.core.residual import ResidualMeter

#: Public name -> the module it is imported from on first use.
_EXPORTS = {name: module for module, names in {
    "repro.core.fairness": ("max_min_allocation", "phantom_allocation"),
    "repro.core.macr": ("MacrFilter",),
    "repro.core.model": ("LoopTrace", "PhantomLoopModel"),
    "repro.core.params": ("DEFAULT_PHANTOM_PARAMS", "PhantomParams"),
    "repro.core.phantom": ("PhantomAlgorithm", "phantom_equilibrium_rate",
                           "phantom_equilibrium_utilization"),
    "repro.core.phantom_binary": ("BinaryPhantomAlgorithm",),
    "repro.core.residual": ("ResidualMeter",),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
