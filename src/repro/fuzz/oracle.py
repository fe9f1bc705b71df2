"""A generated config's oracle view, solved by the one judge,
:func:`repro.obs.health.solve_oracle`, like a built network's."""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.health import packet_session, solve_oracle


def topology_of(config: Mapping[str, Any]
                ) -> tuple[dict[str, float], dict[str, list[str]]]:
    """``(capacities, routes)`` a config's network would export.

    Mirrors :meth:`repro.atm.network.AtmNetwork.capacities` /
    ``routes()`` without building anything: trunks are bidirectional
    port pairs named ``"A->B"``, a session's route is the ordered trunk
    ports its switch list crosses.
    """
    link_rate = float(config.get("link_rate", 150.0))
    capacities: dict[str, float] = {}
    for trunk in config.get("trunks", ()):
        rate = float(trunk.get("rate", link_rate))
        capacities[f"{trunk['a']}->{trunk['b']}"] = rate
        capacities[f"{trunk['b']}->{trunk['a']}"] = rate
    routes = {
        session["vc"]: [f"{a}->{b}" for a, b in
                        zip(session["route"], session["route"][1:])]
        for session in config.get("sessions", ())
    }
    return capacities, routes


def oracle_for_config(config: Mapping[str, Any]) -> dict[str, float]:
    """The phantom-adjusted fair share a config's ABR sessions target."""
    from repro.atm.params import AbrParams
    from repro.core.params import PhantomParams

    capacities, routes = topology_of(config)
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
