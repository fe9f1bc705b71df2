"""Run health reports: max-min verdicts for every execution tier.

:func:`build_health` folds the invariant monitors of
:mod:`repro.obs.monitor` over a completed run handle — packet ATM,
packet TCP, fluid, or hybrid — into one schema'd **HealthReport**::

    {"schema": "repro.obs.health", "version": 1,
     "scenario": "atm.staggered", "eps": 0.05, "verdict": "pass",
     "oracle": {"s0": 68.18..., "s1": 68.18...},
     "checks": [{"name": "conservation", "verdict": "pass",
                 "first_violation_ts": None, "evidence": {...}}, ...]}

Five canonical checks: ``conservation`` and ``queue_bound`` apply to
every run; ``convergence``, ``oscillation``, and ``fairness_gap`` are
judged against the **oracle** — the phantom-adjusted max-min allocation
with the backward-RM tax, computed by :func:`solve_oracle` from the
network's own ``capacities()``/``routes()`` exporters — and report
``not-applicable`` (with the reason in evidence) for runs the paper's
equilibrium argument does not cover: baselines, binary mode, bursty or
transient demand, ablations that change the control law itself.  An
ablation that only re-parameterises the law (``utilization_factor``,
``interval``) keeps its oracle, with the factor folded into the
phantom weight.

This module is the one judge: built networks (:func:`oracle_allocation`)
and fuzzed configs (:mod:`repro.fuzz`) are solved by the same
:func:`solve_oracle` and gated by the same :func:`law_reason`,
:func:`equilibrium_reason` and :func:`floor_reason`.

The report rides inside run manifests (``repro.obs.manifest``), is
reduced per task by the exec worker and aggregated by ``repro suite
--health`` (:func:`merge_health`), and is exported as Prometheus
metrics by ``repro.serve``.  ``repro run NAME`` prints one on demand.

Everything here is *read-only over finished state*: building a report
schedules nothing, mutates nothing, and never raises — an internal
failure degrades to a ``monitor_error`` check so a health pass can
never take a worker task down with it.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from repro.core.fairness import max_min_allocation
from repro.obs.monitor import (DEFAULT_EPS, NOT_APPLICABLE, PASS, VIOLATED,
                               check, conservation_check, convergence_check,
                               fairness_gap_check, oscillation_check,
                               queue_bound_check)

#: Schema identifier stamped into every report.
HEALTH_SCHEMA = "repro.obs.health"
#: Bump when the report layout changes.
HEALTH_VERSION = 1
#: Schema of the suite-level aggregation (:func:`merge_health`).
SUITE_HEALTH_SCHEMA = "repro.obs.health.suite"

#: The canonical check names, in report order.
CHECK_NAMES = ("conservation", "queue_bound", "convergence",
               "oscillation", "fairness_gap")
#: The checks that need an oracle allocation to be judged.
ORACLE_CHECKS = ("convergence", "oscillation", "fairness_gap")

#: Scenarios whose committed demand pattern is steady and greedy, so
#: the phantom-adjusted max-min equilibrium is the right reference.
#: On/off, transient join/leave, CBR background, and the many-flows
#: soak (demand-limited cohorts) are deliberately absent.
_ORACLE_SCENARIOS = frozenset({
    "atm.staggered", "atm.rtt", "atm.parking", "atm.weighted",
    "fluid.staggered", "fluid.parking",
})

#: ``algorithm_params``/``phantom_params`` keys that re-parameterise
#: the Phantom law without changing what it converges to (the factor f
#: feeds the oracle's phantom weight; Δt only changes the time scale).
_RESCALING_KEYS = frozenset({"interval", "utilization_factor"})

#: Largest utilization factor the ε-band argument holds for.  ACR
#: noise is MACR noise amplified f-fold, so very aggressive factors
#: ring permanently: empirically f ≤ 12 settles into the 5% band on
#: the committed horizons and f = 15 already never does.  10 keeps a
#: margin to that cliff (the paper's own choices are 2–10).
MAX_ORACLE_FACTOR = 10.0

#: Shortest run worth judging for convergence, in control intervals.
#: Settling takes tens of intervals (E01: ≈ 38 of Δt = 1 ms), so a
#: shorter horizon measures the transient, not the equilibrium.
MIN_ORACLE_INTERVALS = 50


def verdict_of(checks: list[dict[str, Any]]) -> str:
    """Worst-of fold: any violation taints the run; a run whose every
    check was inapplicable is itself not-applicable."""
    verdicts = {c["verdict"] for c in checks}
    if VIOLATED in verdicts:
        return VIOLATED
    if PASS in verdicts:
        return PASS
    return NOT_APPLICABLE


def _not_applicable(reason: str) -> list[dict[str, Any]]:
    return [check(name, NOT_APPLICABLE, evidence={"reason": reason})
            for name in ORACLE_CHECKS]


# ----------------------------------------------------------------------
# the oracle: one solve path for every topology view
# ----------------------------------------------------------------------
class OracleSession(NamedTuple):
    """One session of an oracle view: its trunk-port route (``"A->B"``),
    ABR parameters, forward cells per backward RM cell (0: none, as in
    the fluid tier) and the number of identical flows it stands for."""

    route: list[str]
    weight: float
    mcr: float
    pcr: float
    nrm: int = 0
    count: int = 1


def packet_session(route: list[str], params) -> OracleSession:
    """The view of one packet ABR session built with ``params``
    (:class:`repro.atm.params.AbrParams`)."""
    return OracleSession(route, params.weight, params.mcr, params.pcr,
                         params.nrm)


def solve_oracle(capacities: Mapping[str, float],
                 sessions: Mapping[str, OracleSession],
                 factor: float) -> dict[str, float]:
    """The phantom-adjusted max-min share of every session in a view.

    Water-filling with phantom weight ``1/f`` over ``count × weight``
    shares and ``count × MCR`` floors; each share is per flow and
    clamped at PCR (a source never sends faster).  Packet sessions pay
    the **backward-RM tax**: one RM cell per ``Nrm`` forward cells
    takes ``share / Nrm`` of every *reverse* port of the route, idle
    under one-directional traffic, ~3% of a loaded link otherwise.  The
    coupled fixpoint converges in a few rounds of the solver.
    """
    routes = {name: s.route for name, s in sessions.items()}
    weights = {name: s.count * s.weight for name, s in sessions.items()}
    minimums = {name: s.count * s.mcr for name, s in sessions.items()
                if s.mcr > 0}

    def solve(caps: Mapping[str, float]) -> dict[str, float]:
        allocation = max_min_allocation(caps, routes,
                                        phantom_weight=1.0 / factor,
                                        minimums=minimums or None,
                                        weights=weights)
        return {name: min(rate / sessions[name].count, sessions[name].pcr)
                for name, rate in allocation.items()}

    shares = solve(capacities)
    taxed = {name: s for name, s in sessions.items() if s.nrm}
    for _ in range(8 if taxed else 0):
        tax = dict.fromkeys(capacities, 0.0)
        for name, session in taxed.items():
            for link in session.route:
                a, b = link.split("->")
                tax[f"{b}->{a}"] += shares[name] * (1.0 / session.nrm)
        refined = solve({link: max(cap - tax[link], cap * 1e-3)
                         for link, cap in capacities.items()})
        worst = max(abs(refined[name] - shares[name])
                    / max(shares[name], 1e-12) for name in shares)
        shares = refined
        if worst < 1e-12:
            break
    return shares


def oracle_allocation(run) -> dict[str, float]:
    """The phantom-adjusted max-min allocation for a run's topology.

    The run's view is the network's ``capacities()``/``routes()``
    exporters plus the parameters it was actually built with: the
    bottleneck's ``utilization_factor`` and each session's ABR
    weight/MCR/PCR/Nrm.  A fluid cohort enters as ``count`` flows and
    pays no RM tax — the fluid tier carries no backward RM cells.
    """
    net = run.net
    routes = net.routes()
    if hasattr(net, "steps"):          # FluidNetwork
        factor = net.phantom.utilization_factor
        sessions = {
            cohort.name: OracleSession(routes[cohort.name],
                                       cohort.params.weight,
                                       cohort.params.mcr,
                                       cohort.params.pcr,
                                       count=cohort.count)
            for cohort in net.cohorts}
    else:
        factor = run.bottleneck.algorithm.params.utilization_factor
        sessions = {vc: packet_session(routes[vc], session.source.params)
                    for vc, session in net.sessions.items() if routes[vc]}
    return solve_oracle(net.capacities(), sessions, factor)


# ----------------------------------------------------------------------
# the gate table: where the equilibrium argument applies
# ----------------------------------------------------------------------
RM_LOSS_REASON = "RM-loss ablation perturbs the control loop"


def law_reason(algorithm: str, knobs: Mapping[str, Any]) -> str | None:
    """Why ``algorithm`` with parameter overrides ``knobs`` does not
    target the phantom-adjusted allocation, or None when it does: only
    the paper's Phantom, at most re-parameterised."""
    if algorithm != "phantom":
        return (f"algorithm {algorithm!r} does not target the "
                f"phantom-adjusted allocation")
    for key in sorted(knobs):
        if key in _RESCALING_KEYS:
            continue
        if key == "use_deviation" and knobs[key] is True:
            continue
        return (f"algorithm parameter {key!r} departs from the "
                f"paper's filter")
    return None


def equilibrium_reason(factor: float, interval: float, duration: float,
                       latest_start: float = 0.0) -> str | None:
    """Does a run with this factor, control interval and horizon sit
    where the equilibrium argument applies?  Only the span after
    ``latest_start`` (the last session's join) counts as settling
    time."""
    if factor > MAX_ORACLE_FACTOR:
        return (f"utilization_factor {factor:g} > {MAX_ORACLE_FACTOR:g} "
                f"amplifies MACR noise past the ε-band")
    settled = duration - latest_start
    if settled < MIN_ORACLE_INTERVALS * interval:
        span = (f"only {settled:g}s after the last join"
                if latest_start > 0 else f"horizon {duration:g}s")
        return (f"{span} is under {MIN_ORACLE_INTERVALS} control "
                f"intervals ({interval:g}s each)")
    return None


def floor_reason(oracle: Mapping[str, float],
                 routes: Mapping[str, list[str]],
                 floors: Mapping[str, float]) -> str | None:
    """Phantom never grants below ``grant_floor_fraction × C``, so an
    oracle share under the floor of every link on the path is
    unreachable by construction — the ε-band argument does not apply
    (per-flow shares, in the fluid tier's case)."""
    for name in sorted(oracle):
        path = routes.get(name) or []
        if not path:
            continue
        floor = min(floors[link] for link in path)
        if oracle[name] < floor:
            return (f"oracle share {oracle[name]:.3g} Mb/s for "
                    f"{name!r} is below the grant floor "
                    f"{floor:.3g} Mb/s")
    return None


def _oracle_reason(scenario: str | None,
                   params: Mapping[str, Any] | None,
                   kind: str) -> str | None:
    """Why the oracle checks do not apply to a registry scenario, or
    None when they do."""
    if scenario is None:
        return "no scenario name given"
    if scenario not in _ORACLE_SCENARIOS:
        return (f"scenario {scenario!r} has no steady greedy "
                f"equilibrium to judge against")
    params = params or {}
    if kind == "atm":
        return law_reason(params.get("algorithm", "phantom"),
                          params.get("algorithm_params") or {})
    if params.get("mode", "er") != "er":
        return "binary feedback mode has no explicit-rate oracle"
    if params.get("rm_loss", 0.0):
        return RM_LOSS_REASON
    return law_reason("phantom", params.get("phantom_params") or {})


# ----------------------------------------------------------------------
# per-tier check assembly
# ----------------------------------------------------------------------
def _steady_measured(probes: Mapping[str, Any], start: float,
                     end: float) -> dict[str, float]:
    """Time-averaged value of each probe over the steady window."""
    measured = {}
    for name, probe in probes.items():
        window = probe.window(start, end)
        if len(window):
            measured[name] = window.time_average(end=end)
        else:
            measured[name] = probe.value_at(start, 0.0)
    return measured


def _oracle_checks(checks: list[dict[str, Any]], run,
                   floors: Mapping[str, float], probes: Mapping[str, Any]):
    """The grant-floor gate, then the oracle checks of the run's rate
    ``probes``; returns ``(checks, oracle or None)``."""
    oracle = oracle_allocation(run)
    reason = floor_reason(oracle, run.net.routes(), floors)
    if reason is not None:
        return checks + _not_applicable(reason), None
    conv = convergence_check(probes, oracle, horizon=run.duration)
    settling = conv["evidence"]["settling_s"]
    osc = oscillation_check(probes, oracle, settling,
                            horizon=run.duration)
    start, end = run.steady_window()
    gap = fairness_gap_check(_steady_measured(probes, start, end), oracle)
    return checks + [conv, osc, gap], oracle


def _atm_checks(run, scenario, params):
    checks = [conservation_check(run), queue_bound_check(run)]
    reason = _oracle_reason(scenario, params, "atm")
    if reason is None:
        algo_params = run.bottleneck.algorithm.params
        reason = equilibrium_reason(algo_params.utilization_factor,
                                     algo_params.interval, run.duration)
    if reason is not None:
        return checks + _not_applicable(reason), None
    fraction = getattr(algo_params, "grant_floor_fraction", 0.0)
    floors = {port.name: fraction * port.rate_mbps
              for port in run.net.trunks.values()}
    probes = {vc: session.acr_probe
              for vc, session in run.net.sessions.items()}
    return _oracle_checks(checks, run, floors, probes)


def _tcp_checks(run, scenario, params):
    checks = [conservation_check(run), queue_bound_check(run)]
    # TCP's AIMD hunts around the fair share by design — there is no
    # settled explicit rate for the ε-band argument to bound.
    reason = "TCP window control has no settled explicit rate"
    return checks + _not_applicable(reason), None


def _fluid_checks(run, scenario, params):
    checks = [conservation_check(run), queue_bound_check(run)]
    reason = _oracle_reason(scenario, params, "fluid")
    if reason is None:
        reason = equilibrium_reason(
            run.net.phantom.utilization_factor, run.net.dt, run.duration)
    if reason is None and not run.net.record_cohorts:
        reason = "cohort recording is off (no per-flow rate series)"
    if reason is not None:
        return checks + _not_applicable(reason), None
    floors = {name: trunk.params.grant_floor_fraction
              * trunk.capacity_mbps
              for name, trunk in run.net.trunks.items()}
    probes = {cohort.name: cohort.rate_probe
              for cohort in run.net.cohorts}
    return _oracle_checks(checks, run, floors, probes)


def _hybrid_checks(run, scenario, params):
    # judge the packet-accurate foreground; fold the fluid background's
    # ledger and queues in as extra named checks so a background
    # violation still taints the run
    checks = [conservation_check(run.atm), queue_bound_check(run.atm)]
    fluid_cons = conservation_check(run.fluid)
    fluid_cons["name"] = "conservation.fluid"
    fluid_queue = queue_bound_check(run.fluid)
    fluid_queue["name"] = "queue_bound.fluid"
    checks += [fluid_cons, fluid_queue]
    reason = ("hybrid foreground shares its trunks with a fluid "
              "background the packet oracle cannot see")
    return checks + _not_applicable(reason), None


def _checks_for(run, scenario, params):
    if hasattr(run, "coupling"):                       # HybridRun
        build = _hybrid_checks
    elif hasattr(run.net, "steps"):                    # FluidRun
        build = _fluid_checks
    elif hasattr(run.net, "flows"):                    # TcpRun
        build = _tcp_checks
    else:                                              # AtmRun
        build = _atm_checks
    return build(run, scenario, params)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def build_health(run, *, scenario: str | None = None,
                 params: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Assemble the HealthReport for a completed run handle.

    ``scenario`` is the registry name (``"atm.staggered"``) and
    ``params`` its entry kwargs — together they gate the oracle checks.
    The rate checks use the ε-band :data:`DEFAULT_EPS`, and each port's
    queue bound is derived by :func:`queue_bound_check`.

    Never raises: an internal monitor failure becomes a
    ``monitor_error`` check with the exception in evidence.
    """
    oracle = None
    try:
        checks, oracle = _checks_for(run, scenario, params)
    except Exception as exc:  # never take the caller down
        checks = [check("monitor_error", NOT_APPLICABLE,
                        evidence={"error":
                                  f"{type(exc).__name__}: {exc}"})]
    report: dict[str, Any] = {
        "schema": HEALTH_SCHEMA,
        "version": HEALTH_VERSION,
        "scenario": scenario,
        "eps": DEFAULT_EPS,
        "verdict": verdict_of(checks),
        "checks": checks,
    }
    if oracle is not None:
        report["oracle"] = dict(sorted(oracle.items()))
    return report


def validate_health(report: Any) -> list[str]:
    """Check the HealthReport invariants; empty list means well-formed."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["health report is not an object"]
    if report.get("schema") != HEALTH_SCHEMA:
        problems.append(f"schema {report.get('schema')!r}, "
                        f"expected {HEALTH_SCHEMA!r}")
    if report.get("version") != HEALTH_VERSION:
        problems.append(f"version {report.get('version')!r}, "
                        f"expected {HEALTH_VERSION}")
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        return problems + ["checks must be a non-empty list"]
    for i, entry in enumerate(checks):
        if not isinstance(entry, dict):
            problems.append(f"checks[{i}] is not an object")
            continue
        if not isinstance(entry.get("name"), str):
            problems.append(f"checks[{i}]: bad or missing name")
        if entry.get("verdict") not in (PASS, VIOLATED, NOT_APPLICABLE):
            problems.append(
                f"checks[{i}]: bad verdict {entry.get('verdict')!r}")
        ts = entry.get("first_violation_ts")
        if ts is not None and not isinstance(ts, (int, float)):
            problems.append(f"checks[{i}]: bad first_violation_ts")
        if not isinstance(entry.get("evidence"), dict):
            problems.append(f"checks[{i}]: bad or missing evidence")
    if not problems and report.get("verdict") != verdict_of(checks):
        problems.append(
            f"verdict {report.get('verdict')!r} does not fold from "
            f"the checks ({verdict_of(checks)!r})")
    return problems


def merge_health(reports: Mapping[str, Mapping[str, Any]]
                 ) -> dict[str, Any]:
    """Aggregate per-run reports (keyed by task/run id) for a suite.

    The fold is worst-of across runs; ``violated`` names each failing
    run with its failing checks so ``repro suite --health`` can print
    an actionable table and exit non-zero.
    """
    verdicts = {PASS: 0, VIOLATED: 0, NOT_APPLICABLE: 0}
    by_check: dict[str, dict[str, int]] = {}
    violated: dict[str, list[str]] = {}
    for run_id in sorted(reports):
        report = reports[run_id]
        verdicts[report["verdict"]] += 1
        bad: list[str] = []
        for entry in report.get("checks", []):
            counts = by_check.setdefault(
                entry["name"], {PASS: 0, VIOLATED: 0, NOT_APPLICABLE: 0})
            counts[entry["verdict"]] += 1
            if entry["verdict"] == VIOLATED:
                bad.append(entry["name"])
        if bad:
            violated[run_id] = bad
    if verdicts[VIOLATED]:
        overall = VIOLATED
    elif verdicts[PASS]:
        overall = PASS
    else:
        overall = NOT_APPLICABLE
    return {
        "schema": SUITE_HEALTH_SCHEMA,
        "version": HEALTH_VERSION,
        "runs": len(reports),
        "verdict": overall,
        "verdicts": verdicts,
        "checks": {name: by_check[name] for name in sorted(by_check)},
        "violated": violated,
    }


__all__ = [
    "CHECK_NAMES", "DEFAULT_EPS", "HEALTH_SCHEMA", "HEALTH_VERSION",
    "MAX_ORACLE_FACTOR", "MIN_ORACLE_INTERVALS", "ORACLE_CHECKS",
    "OracleSession", "RM_LOSS_REASON", "SUITE_HEALTH_SCHEMA",
    "build_health", "equilibrium_reason", "floor_reason", "law_reason",
    "merge_health", "oracle_allocation", "packet_session", "solve_oracle",
    "validate_health", "verdict_of",
]
