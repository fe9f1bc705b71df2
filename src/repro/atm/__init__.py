"""ATM / ABR substrate.

Everything needed to stand in for the paper's BONeS configuration:
53-byte cells and RM cells, TM 4.0 ABR source/destination end systems,
output-queued switches with pluggable per-port rate-control algorithms,
serializing links, and a declarative network builder.
"""

import importlib
from typing import TYPE_CHECKING

# Exports resolve on first use (PEP 562), so importing the shared
# parameter records (repro.atm.params) loads no packet machinery; see
# repro/__init__.py.
if TYPE_CHECKING:
    from repro.atm.background import BackgroundSink, CbrSource, VbrSource
    from repro.atm.cell import Cell, RMCell, RMDirection
    from repro.atm.endsystem import AbrDestination, AbrSource
    from repro.atm.link import CellSink, Link
    from repro.atm.network import DEFAULT_PROP_DELAY, AtmNetwork, Session
    from repro.atm.params import PAPER_PARAMS, AbrParams
    from repro.atm.port import OutputPort, PortAlgorithm
    from repro.atm.switch import AtmSwitch, RoutingError

#: Public name -> the module it is imported from on first use.
_EXPORTS = {name: module for module, names in {
    "repro.atm.background": ("BackgroundSink", "CbrSource", "VbrSource"),
    "repro.atm.cell": ("Cell", "RMCell", "RMDirection"),
    "repro.atm.endsystem": ("AbrDestination", "AbrSource"),
    "repro.atm.link": ("CellSink", "Link"),
    "repro.atm.network": ("DEFAULT_PROP_DELAY", "AtmNetwork", "Session"),
    "repro.atm.params": ("PAPER_PARAMS", "AbrParams"),
    "repro.atm.port": ("OutputPort", "PortAlgorithm"),
    "repro.atm.switch": ("AtmSwitch", "RoutingError"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
