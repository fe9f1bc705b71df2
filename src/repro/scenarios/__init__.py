"""The paper's evaluation configurations, as :mod:`repro.scenarios.config`
configs, and their renderers.

:mod:`repro.scenarios.atm` holds the ATM configurations, which
:func:`repro.scenarios.generic.build_atm` renders cell by cell;
:mod:`repro.scenarios.tcp` holds the TCP ones, whose names repeat the
ATM ones, and :func:`~repro.scenarios.tcp.build_tcp`.
"""

import importlib
from typing import TYPE_CHECKING

# Exports resolve on first use (PEP 562), so reading a config from
# repro.scenarios.atm loads no simulator; see repro/__init__.py.
if TYPE_CHECKING:
    from repro.scenarios.atm import (background_config, onoff_config,
                                     parking_config, rtt_config,
                                     staggered_config, transient_config,
                                     weighted_config)
    from repro.scenarios.generic import AtmRun, build_atm
    from repro.scenarios.tcp import (TCP_PHANTOM_PARAMS, TCP_RENO_PARAMS,
                                     TcpRun, build_tcp, drop_tail_policy,
                                     selective_discard_policy,
                                     selective_efci_policy,
                                     selective_quench_policy,
                                     selective_red_policy)
    from repro.scenarios.workloads import OnOffDriver

#: Public name -> the module it is imported from on first use.
_EXPORTS = {name: module for module, names in {
    "repro.scenarios.atm": ("background_config", "onoff_config",
                            "parking_config", "rtt_config",
                            "staggered_config", "transient_config",
                            "weighted_config"),
    "repro.scenarios.generic": ("AtmRun", "build_atm"),
    "repro.scenarios.tcp": ("TCP_PHANTOM_PARAMS", "TCP_RENO_PARAMS",
                            "TcpRun", "build_tcp", "drop_tail_policy",
                            "selective_discard_policy",
                            "selective_efci_policy",
                            "selective_quench_policy",
                            "selective_red_policy"),
    "repro.scenarios.workloads": ("OnOffDriver",),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
