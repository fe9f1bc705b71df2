"""Fahmy et al.'s centralized max-min solver: the reference cross-check.

A from-scratch implementation of the *centralized* fair-share algorithm
of Fahmy, Jain et al., "On Determining the Fair Bandwidth Share for ABR
Connections in ATM Networks": order links by their advertised
bottleneck level, saturate every link at the current minimum level in
one round, and redistribute each link's residual capacity over its
still-unconstrained connections by recomputing the levels from scratch
each round.

:func:`repro.core.fairness.max_min_allocation`, the solver the health
oracle runs, computes the same allocation by incremental water-filling
(one bottleneck per iteration, mutated residuals).  The two are
intentionally structurally different — round-based residual
*recomputation* here versus incremental capacity *mutation* there — so
their agreement in ``test_oracle.py`` is meaningful cross-validation,
not the same code run twice.

Extensions carried over so the reference matches what the simulated
algorithms actually target: a per-link ``phantom_weight`` (``1/f`` for
the phantom-adjusted allocation), per-session ``weights`` (weighted
max-min), and ``minimums`` (MCR floors, honoured by pinning violated
sessions and re-solving — Fahmy et al.'s "allocate MCR first" variant).
"""

from __future__ import annotations

from typing import Mapping

#: Relative tolerance for "these links advertise the same level" — the
#: simultaneous-saturation set of one round.
_LEVEL_RTOL = 1e-9


def _validate(capacities: Mapping[str, float],
              routes: Mapping[str, list[str]]) -> None:
    if not capacities:
        raise ValueError("no links given")
    for link, cap in capacities.items():
        if cap <= 0:
            raise ValueError(
                f"link {link!r} capacity must be positive, got {cap!r}")
    for session, path in routes.items():
        if not path:
            raise ValueError(f"session {session!r} has an empty route")
        for link in path:
            if link not in capacities:
                raise ValueError(
                    f"session {session!r} crosses unknown link {link!r}")


def _solve_levels(capacities: Mapping[str, float],
                  routes: Mapping[str, list[str]],
                  phantom_weight: float,
                  weights: Mapping[str, float]) -> dict[str, float]:
    """One MCR-free solve: round-based bottleneck-level saturation."""
    crossing: dict[str, set[str]] = {link: set() for link in capacities}
    for session, path in routes.items():
        for link in path:
            crossing[link].add(session)

    rates: dict[str, float] = {}
    unsolved = set(routes)
    while unsolved:
        # advertised level of every link that still constrains someone,
        # from residual capacity recomputed against the solved rates
        levels: dict[str, float] = {}
        for link, sessions in crossing.items():
            open_sessions = sessions & unsolved
            if not open_sessions:
                continue
            residual = capacities[link] - sum(
                rates[s] for s in sessions - unsolved)
            demand = sum(weights.get(s, 1.0)
                         for s in open_sessions) + phantom_weight
            levels[link] = residual / demand
        floor = min(levels.values())
        # saturate every link advertising the minimum level this round
        for link, level in sorted(levels.items()):
            if level > floor * (1 + _LEVEL_RTOL) + _LEVEL_RTOL:
                continue
            for session in sorted(crossing[link] & unsolved):
                rates[session] = weights.get(session, 1.0) * level
                unsolved.discard(session)
    return rates


def fair_share(capacities: Mapping[str, float],
               routes: Mapping[str, list[str]],
               phantom_weight: float = 0.0,
               weights: Mapping[str, float] | None = None,
               minimums: Mapping[str, float] | None = None,
               ) -> dict[str, float]:
    """Centralized fair-share allocation (session name → rate).

    Same contract as
    :func:`repro.core.fairness.max_min_allocation`, computed by the
    Fahmy et al. round-based algorithm instead of incremental
    water-filling.
    """
    _validate(capacities, routes)
    if phantom_weight < 0:
        raise ValueError(
            f"phantom_weight must be >= 0, got {phantom_weight!r}")
    weights = dict(weights or {})
    for session, weight in weights.items():
        if session not in routes:
            raise ValueError(
                f"weight given for unknown session {session!r}")
        if weight <= 0:
            raise ValueError(
                f"weight for {session!r} must be positive, got {weight!r}")
    minimums = dict(minimums or {})
    for session, minimum in minimums.items():
        if session not in routes:
            raise ValueError(
                f"minimum given for unknown session {session!r}")
        if minimum < 0:
            raise ValueError(
                f"minimum for {session!r} must be >= 0, got {minimum!r}")

    # MCR variant: solve, pin any session whose fair level fell below
    # its guarantee at the guarantee, remove it (and its reserved
    # bandwidth) from the problem, and re-solve the rest.
    pinned: dict[str, float] = {}
    open_caps = dict(capacities)
    open_routes = dict(routes)
    while open_routes:
        rates = _solve_levels(open_caps, open_routes, phantom_weight,
                              weights)
        short = [s for s in sorted(open_routes)
                 if rates[s] < minimums.get(s, 0.0) * (1 - 1e-12)]
        if not short:
            return {**pinned, **rates}
        for session in short:
            guarantee = minimums[session]
            pinned[session] = guarantee
            for link in routes[session]:
                open_caps[link] -= guarantee
            del open_routes[session]
    return pinned
