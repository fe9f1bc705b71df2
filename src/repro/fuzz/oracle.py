"""A config's oracle view, solved by the one judge,
:func:`repro.obs.health.solve_oracle`, like a built network's: the
capacities and routes come from :func:`repro.scenarios.config.topology`,
which every renderer's network agrees with."""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.health import packet_session, solve_oracle
from repro.scenarios.config import topology


def oracle_for_config(config: Mapping[str, Any]) -> dict[str, float]:
    """The phantom-adjusted fair share a config's ABR sessions target."""
    from repro.atm.params import AbrParams
    from repro.core.params import PhantomParams

    capacities, routes = topology(config)
    knobs = config.get("algorithm_params") or {}
    factor = float(knobs.get("utilization_factor",
                             PhantomParams().utilization_factor))
    sessions = {
        session["vc"]: packet_session(
            routes[session["vc"]],
            AbrParams(**dict(session.get("params") or {})))
        for session in config.get("sessions", ())
    }
    return solve_oracle(capacities, sessions, factor)
