"""The scenario config: one JSON-able description of a network, without
its switch algorithm or router policy, for every tier.

The paper's configurations and every fuzzed scenario are configs.  The
renderers (``build_atm``, ``build_fluid``, ``build_tcp``) and the judge
(:func:`repro.fuzz.oracle.oracle_for_config`) all read a config's
network through :func:`topology` and :func:`bottleneck`.  This module
imports only the standard library.

Schema (all keys except ``switches``/``trunks``/``sessions``
optional)::

    {"switches": ["S1", "S2"],
     "trunks": [{"a": "S1", "b": "S2", "rate": 150.0, "delay": 1e-5}],
     "sessions": [{"vc": "s0", "route": ["S1", "S2"], "start": 0.0,
                   "stop": 0.3, "access_delay": 1e-5,
                   "params": {"weight": 2.0}, "stack": "reno",
                   "onoff": {"on": 0.02, "off": 0.02,
                             "stream": "onoff.s0"}}],
     "cbr": [{"vc": "bg0", "route": ["S1", "S2"], "rate": 40.0,
              "start": 0.0, "stop": 0.2}],
     "vbr": [{"vc": "vb0", "route": ["S1", "S2"], "peak": 40.0,
              "mean_on": 0.01, "mean_off": 0.02}],
     "algorithm": "phantom", "algorithm_params": {"interval": 1e-3},
     "link_rate": 150.0, "rm_loss": 0.0, "duration": 0.25,
     "bottleneck": ["S1", "S2"]}

A trunk is two directed ports, ``"A->B"`` and ``"B->A"``, at its
``rate`` (default ``link_rate``).  ATM access links run at
``link_rate`` too; TCP access links at :class:`~repro.tcp.TcpNetwork`'s
100 Mb/s.  A session's ``params`` are ``AbrParams`` fields on the ATM
and fluid tiers; on the TCP tier its ``stack`` (``"reno"``,
``"tahoe"`` or ``"vegas"``; default ``"reno"``) picks the sender and
its ``params`` override :data:`repro.scenarios.tcp.TCP_RENO_PARAMS`.  ``stop`` silences a
session's source (default: never) and cannot be combined with
``onoff``, whose phases are drawn from the random stream ``stream``
names (default ``onoff.<vc>``).
"""

from __future__ import annotations

from typing import Any, Mapping


def validate_config(config: Mapping[str, Any]) -> list[str]:
    """Structural problems with a scenario config (empty = valid).

    Deep semantic validation (capacities positive, routes connected) is
    left to network construction, which raises with precise messages;
    this check catches the shape errors that would otherwise surface as
    confusing ``TypeError``s deep inside a renderer.
    """
    problems: list[str] = []
    if not isinstance(config, Mapping):
        return ["config is not a mapping"]
    for key in ("switches", "trunks", "sessions"):
        value = config.get(key)
        if not isinstance(value, (list, tuple)) or not value:
            problems.append(f"{key!r} must be a non-empty list")
    adjacent: set[tuple[str, str]] = set()
    for i, trunk in enumerate(config.get("trunks") or []):
        if not isinstance(trunk, Mapping) or "a" not in trunk \
                or "b" not in trunk:
            problems.append(f"trunks[{i}] needs 'a' and 'b' switch names")
            continue
        # trunks are bidirectional port pairs, so adjacency is symmetric
        adjacent.update({(trunk["a"], trunk["b"]), (trunk["b"], trunk["a"])})
    for i, session in enumerate(config.get("sessions") or []):
        if not isinstance(session, Mapping):
            problems.append(f"sessions[{i}] is not a mapping")
            continue
        if not session.get("vc"):
            problems.append(f"sessions[{i}] needs a 'vc' name")
        if session.get("onoff") and session.get("stop") is not None:
            problems.append(
                f"sessions[{i}] cannot combine 'onoff' with 'stop'")
        route = session.get("route")
        if not isinstance(route, (list, tuple)) or len(route) < 2:
            problems.append(
                f"sessions[{i}] route must list >= 2 switches")
            continue
        # routes name every hop; a missing intermediate switch would
        # otherwise surface as a KeyError deep in network wiring
        for a, b in zip(route, route[1:]):
            if (a, b) not in adjacent:
                problems.append(
                    f"sessions[{i}] route hop {a}->{b} has no trunk")
    duration = config.get("duration", 0.25)
    if not isinstance(duration, (int, float)) or duration <= 0:
        problems.append(f"duration must be positive, got {duration!r}")
    rm_loss = config.get("rm_loss", 0.0)
    if not isinstance(rm_loss, (int, float)) or not 0.0 <= rm_loss < 1.0:
        problems.append(f"rm_loss must be in [0, 1), got {rm_loss!r}")
    return problems


def topology(config: Mapping[str, Any]
             ) -> tuple[dict[str, float], dict[str, list[str]]]:
    """``(capacities, routes)``: every directed port ``"A->B"``'s rate
    in Mb/s, and the ports each session crosses, in order; what every
    renderer's network exports (the fluid tier builds only the ports
    some session crosses)."""
    link_rate = float(config.get("link_rate", 150.0))
    capacities: dict[str, float] = {}
    for trunk in config.get("trunks", ()):
        rate = trunk.get("rate")
        rate = link_rate if rate is None else float(rate)
        capacities[f"{trunk['a']}->{trunk['b']}"] = rate
        capacities[f"{trunk['b']}->{trunk['a']}"] = rate
    routes = {
        session["vc"]: [f"{a}->{b}" for a, b in
                        zip(session["route"], session["route"][1:])]
        for session in config.get("sessions", ())
    }
    return capacities, routes


def bottleneck(config: Mapping[str, Any]) -> tuple[str, str]:
    """The ``(a, b)`` switches of the port a run handle reports.

    ``bottleneck: [a, b]`` picks one explicitly; the default is the
    port the most sessions cross, ties broken by name, so the choice is
    deterministic.
    """
    if config.get("bottleneck"):
        a, b = config["bottleneck"]
        return a, b
    capacities, routes = topology(config)
    crossings = dict.fromkeys(capacities, 0)
    for path in routes.values():
        for port in path:
            crossings[port] += 1
    busiest = max(sorted(crossings), key=crossings.__getitem__)
    a, b = busiest.split("->")
    return a, b
