"""Builtin scenario entry points.

Each entry is a module-level function (lint rule EXE001) taking only
JSON-able keyword arguments — algorithm and policy choices travel as
*names* and are resolved here, inside the worker, against the same
tables the CLI uses.  Entries return the run handles the scenario
builders produce (:class:`~repro.scenarios.results.AtmRun` /
``TcpRun``), which the worker reduces to metrics and probe digests.

Registering an entry imports nothing from the simulator: each entry
imports its builder in its own body, and the algorithm and policy
tables hold dotted names resolved at call time.  So a cached replay,
which looks entries up but never calls them, stays as cheap as the
registry itself.

Fingerprint roots: every ATM entry declares ``repro.scenarios.atm`` (or
the modules it builds from directly) and every TCP entry
``repro.scenarios.tcp``; :func:`atm_param_deps` / :func:`tcp_param_deps`
add the module defining the *chosen* algorithm/policy, so an edit to
``repro/baselines/capc.py`` invalidates only the CAPC tasks.  The
fingerprint also covers this whole file (see
:func:`repro.exec.fingerprint.task_fingerprint`), helpers and tables
included.
"""

from __future__ import annotations

import importlib
from functools import partial
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.exec.registry import register_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.results import AtmRun

#: name -> (algorithm class, its params class), as dotted names.  The
#: algorithm's module is the params-derived fingerprint root: choosing
#: ``"capc"`` makes the task's cache entry sensitive to
#: ``repro/baselines/capc.py`` edits.
ATM_ALGORITHMS: dict[str, tuple[str, str]] = {
    "phantom": ("repro.core.phantom.PhantomAlgorithm",
                "repro.core.params.PhantomParams"),
    "phantom-binary": ("repro.core.phantom_binary.BinaryPhantomAlgorithm",
                       "repro.core.params.PhantomParams"),
    "eprca": ("repro.baselines.eprca.EprcaAlgorithm",
              "repro.baselines.eprca.EprcaParams"),
    "aprc": ("repro.baselines.aprc.AprcAlgorithm",
             "repro.baselines.aprc.AprcParams"),
    "capc": ("repro.baselines.capc.CapcAlgorithm",
             "repro.baselines.capc.CapcParams"),
    "erica": ("repro.baselines.erica.EricaAlgorithm",
              "repro.baselines.erica.EricaParams"),
}

#: name -> (policy-factory function, defining module), as dotted names.
TCP_POLICIES: dict[str, tuple[str, str]] = {
    "drop-tail": ("repro.scenarios.tcp.drop_tail_policy",
                  "repro.tcp.router"),
    "selective-discard": ("repro.scenarios.tcp.selective_discard_policy",
                          "repro.tcp.phantom_router"),
    "quench": ("repro.scenarios.tcp.selective_quench_policy",
               "repro.tcp.phantom_router"),
    "efci": ("repro.scenarios.tcp.selective_efci_policy",
             "repro.tcp.phantom_router"),
    "selective-red": ("repro.scenarios.tcp.selective_red_policy",
                      "repro.tcp.phantom_router"),
}


def resolve(dotted: str) -> Any:
    """The object a dotted ``module.name`` path names, imported now."""
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


def _lookup(table: Mapping[str, Any], name: str, what: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown {what} {name!r}; known: {known}") \
            from None


def _algorithm_factory(algorithm: str,
                       algorithm_params: Mapping[str, Any] | None):
    """Zero-arg factory for the named switch algorithm."""
    cls, params_cls = map(resolve, _lookup(ATM_ALGORITHMS, algorithm,
                                           "algorithm"))
    opts = dict(algorithm_params or {})
    # binary Phantom's marking knobs are constructor arguments, not
    # PhantomParams fields
    extra = {key: opts.pop(key) for key in ("use_ni", "ni_fraction")
             if key in opts} if algorithm == "phantom-binary" else {}
    return partial(cls, params_cls(**opts), **extra)


def _abr_params(session_params: Mapping[str, Any] | None) -> dict:
    """``params=`` kwarg for scenario builders, or nothing for defaults."""
    if session_params is None:
        return {}
    from repro.atm import AbrParams

    return {"params": AbrParams(**session_params)}


def _policy_factory(policy: str,
                    policy_params: Mapping[str, Any] | None):
    """Picklable policy factory for the named router mechanism."""
    factory_fn = resolve(_lookup(TCP_POLICIES, policy, "policy")[0])
    opts = dict(policy_params or {})
    if "params" in opts:
        from repro.core.params import PhantomParams

        opts["params"] = PhantomParams(**opts["params"])
    return factory_fn(**opts)


def _algorithm_module(algorithm: str) -> str:
    """The module defining the named algorithm: its fingerprint root."""
    return _lookup(ATM_ALGORITHMS, algorithm,
                   "algorithm")[0].rpartition(".")[0]


def atm_param_deps(params: dict) -> tuple[str, ...]:
    return (_algorithm_module(params.get("algorithm", "phantom")),)


def tcp_param_deps(params: dict) -> tuple[str, ...]:
    policy = params.get("policy", "selective-discard")
    return (_lookup(TCP_POLICIES, policy, "policy")[1],)


# ----------------------------------------------------------------------
# ATM entries
# ----------------------------------------------------------------------
def atm_staggered(algorithm: str = "phantom",
                  algorithm_params: Mapping[str, Any] | None = None,
                  session_params: Mapping[str, Any] | None = None,
                  n_sessions: int = 2, stagger: float = 0.03,
                  duration: float = 0.25,
                  link_rate: float = 150.0) -> AtmRun:
    from repro.scenarios.atm import staggered_start

    return staggered_start(
        _algorithm_factory(algorithm, algorithm_params),
        n_sessions=n_sessions, stagger=stagger, duration=duration,
        link_rate=link_rate, **_abr_params(session_params))


def atm_rtt(algorithm: str = "phantom",
            algorithm_params: Mapping[str, Any] | None = None,
            session_params: Mapping[str, Any] | None = None,
            access_delays: Sequence[float] = (1e-5, 5e-4, 2e-3),
            duration: float = 0.3, link_rate: float = 150.0) -> AtmRun:
    from repro.scenarios.atm import rtt_spread

    return rtt_spread(
        _algorithm_factory(algorithm, algorithm_params),
        access_delays=tuple(access_delays), duration=duration,
        link_rate=link_rate, **_abr_params(session_params))


def atm_onoff(algorithm: str = "phantom",
              algorithm_params: Mapping[str, Any] | None = None,
              session_params: Mapping[str, Any] | None = None,
              greedy: int = 1, bursty: int = 2, on_time: float = 0.02,
              off_time: float = 0.02, duration: float = 0.4,
              link_rate: float = 150.0, seed: int | None = 7) -> AtmRun:
    from repro.scenarios.atm import on_off

    return on_off(
        _algorithm_factory(algorithm, algorithm_params),
        greedy=greedy, bursty=bursty, on_time=on_time, off_time=off_time,
        duration=duration, link_rate=link_rate, seed=seed,
        **_abr_params(session_params))


def atm_parking(algorithm: str = "phantom",
                algorithm_params: Mapping[str, Any] | None = None,
                session_params: Mapping[str, Any] | None = None,
                hops: int = 3, duration: float = 0.3,
                link_rate: float = 150.0) -> AtmRun:
    from repro.scenarios.atm import parking_lot

    return parking_lot(
        _algorithm_factory(algorithm, algorithm_params),
        hops=hops, duration=duration, link_rate=link_rate,
        **_abr_params(session_params))


def atm_transient(algorithm: str = "phantom",
                  algorithm_params: Mapping[str, Any] | None = None,
                  session_params: Mapping[str, Any] | None = None,
                  duration: float = 0.4, join_at: float = 0.1,
                  leave_at: float = 0.25,
                  link_rate: float = 150.0) -> AtmRun:
    from repro.scenarios.atm import transient

    return transient(
        _algorithm_factory(algorithm, algorithm_params),
        duration=duration, join_at=join_at, leave_at=leave_at,
        link_rate=link_rate, **_abr_params(session_params))


def atm_background(algorithm: str = "phantom",
                   algorithm_params: Mapping[str, Any] | None = None,
                   n_sessions: int = 2, cbr_rate: float = 60.0,
                   cbr_start: float = 0.15, cbr_stop: float = 0.30,
                   duration: float = 0.45,
                   link_rate: float = 150.0) -> AtmRun:
    """ABR sessions sharing a trunk with a guaranteed CBR stream (E23)."""
    from repro.atm import AtmNetwork
    from repro.scenarios.results import AtmRun

    net = AtmNetwork(
        algorithm_factory=_algorithm_factory(algorithm, algorithm_params),
        link_rate=link_rate)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    for i in range(n_sessions):
        net.add_session(f"s{i}", route=["S1", "S2"])
    net.add_cbr("bg", route=["S1", "S2"], rate_mbps=cbr_rate,
                start=cbr_start, stop=cbr_stop)
    result = AtmRun(net=net, bottleneck=net.trunk("S1", "S2"),
                    duration=duration)
    net.run(until=duration)
    return result


def atm_weighted(algorithm: str = "phantom",
                 algorithm_params: Mapping[str, Any] | None = None,
                 weights: Mapping[str, float] | None = None,
                 duration: float = 0.3,
                 link_rate: float = 150.0) -> AtmRun:
    """Weighted-Phantom fair-share split over one trunk (E25)."""
    from repro.atm import AbrParams, AtmNetwork
    from repro.scenarios.results import AtmRun

    if weights is None:
        weights = {"w1": 1.0, "w2": 2.0, "w4": 4.0}
    net = AtmNetwork(
        algorithm_factory=_algorithm_factory(algorithm, algorithm_params),
        link_rate=link_rate)
    net.add_switch("S1")
    net.add_switch("S2")
    net.connect("S1", "S2")
    for name in sorted(weights):
        net.add_session(name, route=["S1", "S2"],
                        params=AbrParams(weight=weights[name]))
    result = AtmRun(net=net, bottleneck=net.trunk("S1", "S2"),
                    duration=duration)
    net.run(until=duration)
    return result


def fuzz_generic(config: Mapping[str, Any],
                 seed: int | None = None) -> AtmRun:
    """Config-driven ATM scenario — the fuzzer's resolution target.

    Unlike every other ATM entry, the whole scenario (topology,
    sessions, schedules, algorithm) arrives as the spec's inline
    ``config`` mapping; only the algorithm name/params are resolved
    here, against the same table the hand-written entries use.
    """
    from repro.scenarios.generic import build_atm

    return build_atm(
        config,
        algorithm_factory=_algorithm_factory(
            config.get("algorithm", "phantom"),
            config.get("algorithm_params")),
        seed=seed)


def fuzz_param_deps(params: dict) -> tuple[str, ...]:
    config = params.get("config") or {}
    return (_algorithm_module(config.get("algorithm", "phantom")),)


# ----------------------------------------------------------------------
# fluid entries
# ----------------------------------------------------------------------
def _phantom_params(phantom_params: Mapping[str, Any] | None):
    """``phantom=`` kwarg for fluid builders, or nothing for defaults."""
    if phantom_params is None:
        return {}
    from repro.core.params import PhantomParams

    return {"phantom": PhantomParams(**phantom_params)}


def fluid_staggered(n_sessions: int = 2, stagger: float = 0.03,
                    duration: float = 0.25, link_rate: float = 150.0,
                    flows_per_session: int = 1, mode: str = "er",
                    use_ni: bool = False, ni_fraction: float = 0.8,
                    rm_loss: float = 0.0,
                    session_params: Mapping[str, Any] | None = None,
                    phantom_params: Mapping[str, Any] | None = None):
    from repro.fluid.scenarios import staggered_start

    return staggered_start(
        n_sessions=n_sessions, stagger=stagger, duration=duration,
        link_rate=link_rate, flows_per_session=flows_per_session,
        mode=mode, use_ni=use_ni, ni_fraction=ni_fraction,
        rm_loss=rm_loss, **_abr_params(session_params),
        **_phantom_params(phantom_params))


def fluid_onoff(greedy: int = 1, bursty: int = 2, on_time: float = 0.02,
                off_time: float = 0.02, duration: float = 0.4,
                link_rate: float = 150.0, flows_per_session: int = 1,
                seed: int | None = 7,
                session_params: Mapping[str, Any] | None = None,
                phantom_params: Mapping[str, Any] | None = None):
    from repro.fluid.scenarios import on_off

    return on_off(
        greedy=greedy, bursty=bursty, on_time=on_time,
        off_time=off_time, duration=duration, link_rate=link_rate,
        flows_per_session=flows_per_session, seed=seed,
        **_abr_params(session_params), **_phantom_params(phantom_params))


def fluid_parking(hops: int = 3, duration: float = 0.3,
                  link_rate: float = 150.0, flows_per_session: int = 1,
                  session_params: Mapping[str, Any] | None = None,
                  phantom_params: Mapping[str, Any] | None = None):
    from repro.fluid.scenarios import parking_lot

    return parking_lot(
        hops=hops, duration=duration, link_rate=link_rate,
        flows_per_session=flows_per_session,
        **_abr_params(session_params), **_phantom_params(phantom_params))


def fluid_transient(duration: float = 0.4, join_at: float = 0.1,
                    leave_at: float = 0.25, link_rate: float = 150.0,
                    flows_per_session: int = 1,
                    session_params: Mapping[str, Any] | None = None,
                    phantom_params: Mapping[str, Any] | None = None):
    from repro.fluid.scenarios import transient

    return transient(
        duration=duration, join_at=join_at, leave_at=leave_at,
        link_rate=link_rate, flows_per_session=flows_per_session,
        **_abr_params(session_params), **_phantom_params(phantom_params))


def fluid_many(cohorts: int = 1000, flows_per_cohort: int = 1000,
               greedy: int = 100, background_load: float = 0.7,
               duration: float = 1.0, link_rate: float = 10000.0,
               record_cohorts: bool = False,
               session_params: Mapping[str, Any] | None = None,
               phantom_params: Mapping[str, Any] | None = None):
    from repro.fluid.scenarios import many_flows

    return many_flows(
        cohorts=cohorts, flows_per_cohort=flows_per_cohort,
        greedy=greedy, background_load=background_load,
        duration=duration, link_rate=link_rate,
        record_cohorts=record_cohorts, **_abr_params(session_params),
        **_phantom_params(phantom_params))


def fluid_hybrid_e01(foreground: int = 2, background: int = 500,
                     background_demand_mbps: float = 0.2,
                     stagger: float = 0.03, duration: float = 0.25,
                     link_rate: float = 150.0,
                     session_params: Mapping[str, Any] | None = None,
                     phantom_params: Mapping[str, Any] | None = None):
    from repro.fluid.hybrid import hybrid_staggered

    return hybrid_staggered(
        foreground=foreground, background=background,
        background_demand_mbps=background_demand_mbps, stagger=stagger,
        duration=duration, link_rate=link_rate,
        **_abr_params(session_params), **_phantom_params(phantom_params))


# ----------------------------------------------------------------------
# TCP entries
# ----------------------------------------------------------------------
def tcp_rtt(policy: str = "selective-discard",
            policy_params: Mapping[str, Any] | None = None,
            access_delays: Sequence[float] = (1e-3, 4e-3),
            duration: float = 30.0, trunk_rate: float = 10.0):
    from repro.scenarios.tcp import rtt_fairness

    return rtt_fairness(
        _policy_factory(policy, policy_params),
        access_delays=tuple(access_delays), duration=duration,
        trunk_rate=trunk_rate)


def tcp_parking(policy: str = "selective-discard",
                policy_params: Mapping[str, Any] | None = None,
                hops: int = 3, duration: float = 30.0,
                trunk_rate: float = 10.0):
    from repro.scenarios.tcp import tcp_parking_lot

    return tcp_parking_lot(
        _policy_factory(policy, policy_params),
        hops=hops, duration=duration, trunk_rate=trunk_rate)


def tcp_many(policy: str = "selective-discard",
             policy_params: Mapping[str, Any] | None = None,
             n_flows: int = 4, duration: float = 30.0,
             trunk_rate: float = 10.0, access_delay: float = 2e-3):
    from repro.scenarios.tcp import many_flows

    return many_flows(
        _policy_factory(policy, policy_params),
        n_flows=n_flows, duration=duration, trunk_rate=trunk_rate,
        access_delay=access_delay)


def tcp_vegas(policy: str = "selective-discard",
              policy_params: Mapping[str, Any] | None = None,
              hungry: Sequence[float] = (8.0, 10.0),
              modest: Sequence[float] = (1.0, 2.0),
              duration: float = 30.0, trunk_rate: float = 10.0):
    from repro.scenarios.tcp import vegas_thresholds

    return vegas_thresholds(
        _policy_factory(policy, policy_params),
        hungry=tuple(hungry), modest=tuple(modest), duration=duration,
        trunk_rate=trunk_rate)


def tcp_mixed(policy: str = "selective-discard",
              policy_params: Mapping[str, Any] | None = None,
              duration: float = 30.0, trunk_rate: float = 10.0):
    from repro.scenarios.tcp import mixed_stacks

    return mixed_stacks(
        _policy_factory(policy, policy_params),
        duration=duration, trunk_rate=trunk_rate)


def tcp_twoway(policy: str = "selective-discard",
               policy_params: Mapping[str, Any] | None = None,
               flows_per_direction: int = 2, duration: float = 30.0,
               trunk_rate: float = 10.0):
    from repro.scenarios.tcp import two_way

    return two_way(
        _policy_factory(policy, policy_params),
        flows_per_direction=flows_per_direction, duration=duration,
        trunk_rate=trunk_rate)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
_ATM_DEPS = ("repro.scenarios.atm",)
_TCP_DEPS = ("repro.scenarios.tcp",)

register_scenario("atm.staggered", atm_staggered, kind="atm",
                  deps=_ATM_DEPS, param_deps=atm_param_deps)
register_scenario("atm.rtt", atm_rtt, kind="atm",
                  deps=_ATM_DEPS, param_deps=atm_param_deps)
register_scenario("atm.onoff", atm_onoff, kind="atm",
                  deps=_ATM_DEPS, param_deps=atm_param_deps)
register_scenario("atm.parking", atm_parking, kind="atm",
                  deps=_ATM_DEPS, param_deps=atm_param_deps)
register_scenario("atm.transient", atm_transient, kind="atm",
                  deps=_ATM_DEPS, param_deps=atm_param_deps)
register_scenario("atm.background", atm_background, kind="atm",
                  deps=("repro.atm", "repro.scenarios.results"),
                  param_deps=atm_param_deps)
register_scenario("atm.weighted", atm_weighted, kind="atm",
                  deps=("repro.atm", "repro.scenarios.results"),
                  param_deps=atm_param_deps)
register_scenario("fuzz.generic", fuzz_generic, kind="atm",
                  deps=("repro.scenarios.generic",),
                  param_deps=fuzz_param_deps)

_FLUID_DEPS = ("repro.fluid.scenarios",)

register_scenario("fluid.staggered", fluid_staggered, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.onoff", fluid_onoff, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.parking", fluid_parking, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.transient", fluid_transient, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.many", fluid_many, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.hybrid_e01", fluid_hybrid_e01, kind="fluid",
                  deps=("repro.fluid.hybrid",))

register_scenario("tcp.rtt", tcp_rtt, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.parking", tcp_parking, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.many", tcp_many, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.vegas", tcp_vegas, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.mixed", tcp_mixed, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.twoway", tcp_twoway, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
