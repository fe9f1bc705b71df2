"""Reproduction of *Phantom: A Simple and Effective Flow Control Scheme*
(Afek, Mansour, Ostfeld — SIGCOMM 1996).

Quick start::

    from repro import AtmNetwork, PhantomAlgorithm

    net = AtmNetwork(algorithm_factory=PhantomAlgorithm)
    net.add_switch("S1"); net.add_switch("S2")
    net.connect("S1", "S2")
    a = net.add_session("A", route=["S1", "S2"])
    b = net.add_session("B", route=["S1", "S2"], start=0.030)
    net.run(until=0.25)
    print(a.source.acr, b.source.acr)   # ~68 Mb/s each: f*C/(n*f+1)

Packages
--------
``repro.sim``        discrete-event kernel (BONeS substitute)
``repro.atm``        ABR end systems, switches, links (TM 4.0 subset)
``repro.core``       Phantom: MACR filter, ER + binary variants, max-min
``repro.baselines``  EPRCA, APRC, CAPC (ATM Forum comparisons)
``repro.tcp``        TCP Reno, drop-tail/RED routers, Selective Discard,
                     Selective Source Quench, selective EFCI, Selective RED
``repro.scenarios``  the paper's evaluation configurations
``repro.analysis``   fairness/convergence/queue metrics and reporting
"""

import importlib
from typing import TYPE_CHECKING

# Exports resolve on first use (PEP 562), so a command loads only the
# modules it runs.  The imports below stay for type checkers and for the
# fingerprint walker (repro.exec.fingerprint), which follows them like
# any other import; tests/test_startup.py keeps them and _EXPORTS
# naming the same pairs.
if TYPE_CHECKING:
    from repro.atm import AbrParams, AtmNetwork, PAPER_PARAMS
    from repro.baselines import (AprcAlgorithm, CapcAlgorithm,
                                 EprcaAlgorithm, EricaAlgorithm)
    from repro.core import (BinaryPhantomAlgorithm, MacrFilter,
                            PhantomAlgorithm, PhantomParams,
                            max_min_allocation, phantom_allocation,
                            phantom_equilibrium_rate,
                            phantom_equilibrium_utilization)
    from repro.sim import Simulator
    from repro.tcp import (DropTail, Red, RenoParams, SelectiveDiscard,
                           SelectiveEfci, SelectiveQuench, SelectiveRed,
                           TcpNetwork)

__version__ = "1.0.0"

#: Public name -> the module it is imported from on first use.
_EXPORTS = {name: module for module, names in {
    "repro.atm": ("AbrParams", "AtmNetwork", "PAPER_PARAMS"),
    "repro.baselines": ("AprcAlgorithm", "CapcAlgorithm", "EprcaAlgorithm",
                        "EricaAlgorithm"),
    "repro.core": ("BinaryPhantomAlgorithm", "MacrFilter",
                   "PhantomAlgorithm", "PhantomParams",
                   "max_min_allocation", "phantom_allocation",
                   "phantom_equilibrium_rate",
                   "phantom_equilibrium_utilization"),
    "repro.sim": ("Simulator",),
    "repro.tcp": ("DropTail", "Red", "RenoParams", "SelectiveDiscard",
                  "SelectiveEfci", "SelectiveQuench", "SelectiveRed",
                  "TcpNetwork"),
}.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
