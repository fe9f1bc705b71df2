"""The paper's ATM configurations as scenario configs.

Each function returns a plain, JSON-able :mod:`repro.scenarios.generic`
config describing one configuration of the paper's Sections 2 and 5:
topology, sessions, schedules and horizon, but no switch algorithm.
One description feeds every tier:

* :func:`repro.scenarios.generic.build_atm` renders it cell by cell,
  under Phantom or any baseline;
* :func:`repro.fluid.scenarios.build_fluid` renders it as rates;
* :func:`repro.fuzz.oracle.oracle_for_config` judges it, and the fuzz
  shrinker and corpus take it like any generated config.

This module imports nothing from the simulator, so a caller that only
needs the description (the fluid tier, the fuzz tooling) loads no
packet code.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

#: The one-bottleneck route most configurations share.
_ROUTE = ["S1", "S2"]


def _session(vc: str, session_params: Mapping[str, Any] | None,
             route: Sequence[str] = _ROUTE, **keys: Any) -> dict[str, Any]:
    session = {"vc": vc, "route": list(route), **keys}
    if session_params is not None:
        session["params"] = dict(session_params)
    return session


def _one_trunk(sessions: list[dict[str, Any]], duration: float,
               link_rate: float, **extra: Any) -> dict[str, Any]:
    return {"switches": ["S1", "S2"], "trunks": [{"a": "S1", "b": "S2"}],
            "sessions": sessions, "link_rate": link_rate,
            "duration": duration, **extra}


def staggered_config(n_sessions: int = 2, stagger: float = 0.03,
                     duration: float = 0.25, link_rate: float = 150.0,
                     session_params: Mapping[str, Any] | None = None
                     ) -> dict[str, Any]:
    """E01: n greedy sessions joining one bottleneck ``stagger`` seconds
    apart (Fig. 2-3): convergence speed and fairness as sessions arrive.
    """
    if n_sessions < 1:
        raise ValueError(f"need >= 1 session, got {n_sessions!r}")
    return _one_trunk([_session(f"s{i}", session_params, start=i * stagger)
                       for i in range(n_sessions)], duration, link_rate)


def onoff_config(greedy: int = 1, bursty: int = 2, on_time: float = 0.02,
                 off_time: float = 0.02, duration: float = 0.4,
                 link_rate: float = 150.0,
                 session_params: Mapping[str, Any] | None = None
                 ) -> dict[str, Any]:
    """E02: greedy sessions sharing a link with on/off sessions (Fig.
    4/22).  Phases are exponential with the given means, each session
    drawing from the stream named after it."""
    sessions = [_session(f"greedy{i}", session_params)
                for i in range(greedy)]
    sessions += [_session(f"onoff{i}", session_params,
                          onoff={"on": on_time, "off": off_time,
                                 "stream": f"onoff{i}"})
                 for i in range(bursty)]
    return _one_trunk(sessions, duration, link_rate)


def rtt_config(access_delays: Sequence[float] = (1e-5, 5e-4, 2e-3),
               duration: float = 0.3, link_rate: float = 150.0,
               session_params: Mapping[str, Any] | None = None
               ) -> dict[str, Any]:
    """E03: sessions with vastly different round-trip times share a link.

    Tests the paper's claim that Phantom's allocation is RTT-independent
    (every session is granted the same f·MACR), where the EPRCA-family
    thresholds produce RTT-dependent shares [CGBS94].
    """
    return _one_trunk([_session(f"rtt{i}", session_params,
                                access_delay=delay)
                       for i, delay in enumerate(access_delays)],
                      duration, link_rate)


def parking_config(hops: int = 3, duration: float = 0.3,
                   link_rate: float = 150.0,
                   session_params: Mapping[str, Any] | None = None
                   ) -> dict[str, Any]:
    """E04: the multi-hop "beat-down" configuration.

    One long session crosses all ``hops`` trunks; each trunk also carries
    one single-hop cross session.  Binary/threshold schemes beat the long
    session down [BdJ94]; Phantom should hand it the same grant as
    everyone else at the true bottleneck.
    """
    if hops < 2:
        raise ValueError(f"need >= 2 hops, got {hops!r}")
    names = [f"S{i}" for i in range(1, hops + 2)]
    hop_pairs = list(zip(names, names[1:]))
    sessions = [_session("long", session_params, route=names)]
    sessions += [_session(f"cross{i}", session_params, route=pair)
                 for i, pair in enumerate(hop_pairs)]
    return {"switches": names,
            "trunks": [{"a": a, "b": b} for a, b in hop_pairs],
            "sessions": sessions, "link_rate": link_rate,
            "duration": duration}


def transient_config(duration: float = 0.4, join_at: float = 0.1,
                     leave_at: float = 0.25, link_rate: float = 150.0,
                     session_params: Mapping[str, Any] | None = None
                     ) -> dict[str, Any]:
    """E08: a base session runs throughout; a visitor joins, then departs.

    Measures reclaim time: how quickly the survivor's rate returns to the
    single-session share after the departure.
    """
    if not 0 < join_at < leave_at < duration:
        raise ValueError("need 0 < join_at < leave_at < duration")
    return _one_trunk([_session("base", session_params),
                       _session("visitor", session_params, start=join_at,
                                stop=leave_at)], duration, link_rate)


def background_config(n_sessions: int = 2, cbr_rate: float = 60.0,
                      cbr_start: float = 0.15, cbr_stop: float = 0.30,
                      duration: float = 0.45, link_rate: float = 150.0
                      ) -> dict[str, Any]:
    """E23: ABR sessions sharing a trunk with a guaranteed CBR stream."""
    return _one_trunk(
        [_session(f"s{i}", None) for i in range(n_sessions)], duration,
        link_rate, cbr=[{"vc": "bg", "route": list(_ROUTE),
                         "rate": cbr_rate, "start": cbr_start,
                         "stop": cbr_stop}])


def weighted_config(weights: Mapping[str, float] | None = None,
                    duration: float = 0.3, link_rate: float = 150.0
                    ) -> dict[str, Any]:
    """E25: the weighted-Phantom fair-share split over one trunk."""
    if weights is None:
        weights = {"w1": 1.0, "w2": 2.0, "w4": 4.0}
    return _one_trunk([_session(name, {"weight": weights[name]})
                       for name in sorted(weights)], duration, link_rate)
