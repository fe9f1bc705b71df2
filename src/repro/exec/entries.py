"""Builtin scenario entry points.

Each entry is a module-level function (``register_scenario`` rejects
anything else) taking only JSON-able keyword arguments — algorithm and
policy choices travel as *names* and are resolved here, inside the
worker, against the same tables the CLI uses — plus ``tracer``, which
no spec carries: ``repro run --trace`` hands a live
:class:`~repro.obs.Tracer` to the same entry a suite task calls.
Entries return the run handles the renderers produce
(:class:`~repro.scenarios.generic.AtmRun` /
:class:`~repro.scenarios.tcp.TcpRun` /
:class:`~repro.fluid.results.FluidRun`), which the worker reduces to
metrics and probe digests.  Each ATM and fluid entry takes one of the
paper's configs from :mod:`repro.scenarios.atm` and renders it: cell
by cell with :func:`~repro.scenarios.generic.build_atm`, or as rates
with :func:`~repro.fluid.scenarios.build_fluid`.  Each TCP entry takes
one from :mod:`repro.scenarios.tcp` and renders it as TCP flows with
:func:`~repro.scenarios.tcp.build_tcp`.

Registering an entry imports nothing from the simulator: each entry
imports its builder in its own body, and the algorithm and policy
tables hold dotted names resolved at call time.  So a cached replay,
which looks entries up but never calls them, stays as cheap as the
registry itself.

Fingerprint roots: every entry declares the modules of its config and
its renderer (``repro.scenarios.atm`` with ``repro.scenarios.generic``
or ``repro.fluid.scenarios``; ``repro.scenarios.tcp`` holds both for
the TCP entries); :func:`atm_param_deps` / :func:`tcp_param_deps`
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
    from repro.scenarios.generic import AtmRun
    from repro.scenarios.tcp import TcpRun

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
# ATM entries: a repro.scenarios.atm config rendered by build_atm
# ----------------------------------------------------------------------
def _atm_run(config: Mapping[str, Any], algorithm: str,
             algorithm_params: Mapping[str, Any] | None,
             seed: int | None = 0, tracer=None) -> AtmRun:
    from repro.scenarios.generic import build_atm

    return build_atm(config, algorithm_factory=_algorithm_factory(
        algorithm, algorithm_params), seed=seed, tracer=tracer)


def atm_staggered(algorithm: str = "phantom",
                  algorithm_params: Mapping[str, Any] | None = None,
                  session_params: Mapping[str, Any] | None = None,
                  n_sessions: int = 2, stagger: float = 0.03,
                  duration: float = 0.25,
                  link_rate: float = 150.0, tracer=None) -> AtmRun:
    from repro.scenarios.atm import staggered_config

    return _atm_run(staggered_config(
        n_sessions=n_sessions, stagger=stagger, duration=duration,
        link_rate=link_rate, session_params=session_params),
        algorithm, algorithm_params, tracer=tracer)


def atm_rtt(algorithm: str = "phantom",
            algorithm_params: Mapping[str, Any] | None = None,
            session_params: Mapping[str, Any] | None = None,
            access_delays: Sequence[float] = (1e-5, 5e-4, 2e-3),
            duration: float = 0.3, link_rate: float = 150.0,
            tracer=None) -> AtmRun:
    from repro.scenarios.atm import rtt_config

    return _atm_run(rtt_config(
        access_delays=access_delays, duration=duration,
        link_rate=link_rate, session_params=session_params),
        algorithm, algorithm_params, tracer=tracer)


def atm_onoff(algorithm: str = "phantom",
              algorithm_params: Mapping[str, Any] | None = None,
              session_params: Mapping[str, Any] | None = None,
              greedy: int = 1, bursty: int = 2, on_time: float = 0.02,
              off_time: float = 0.02, duration: float = 0.4,
              link_rate: float = 150.0, seed: int = 7,
              tracer=None) -> AtmRun:
    from repro.scenarios.atm import onoff_config

    return _atm_run(onoff_config(
        greedy=greedy, bursty=bursty, on_time=on_time, off_time=off_time,
        duration=duration, link_rate=link_rate,
        session_params=session_params),
        algorithm, algorithm_params, seed=seed, tracer=tracer)


def atm_parking(algorithm: str = "phantom",
                algorithm_params: Mapping[str, Any] | None = None,
                session_params: Mapping[str, Any] | None = None,
                hops: int = 3, duration: float = 0.3,
                link_rate: float = 150.0, tracer=None) -> AtmRun:
    from repro.scenarios.atm import parking_config

    return _atm_run(parking_config(
        hops=hops, duration=duration, link_rate=link_rate,
        session_params=session_params),
        algorithm, algorithm_params, tracer=tracer)


def atm_transient(algorithm: str = "phantom",
                  algorithm_params: Mapping[str, Any] | None = None,
                  session_params: Mapping[str, Any] | None = None,
                  duration: float = 0.4, join_at: float = 0.1,
                  leave_at: float = 0.25, link_rate: float = 150.0,
                  tracer=None) -> AtmRun:
    from repro.scenarios.atm import transient_config

    return _atm_run(transient_config(
        duration=duration, join_at=join_at, leave_at=leave_at,
        link_rate=link_rate, session_params=session_params),
        algorithm, algorithm_params, tracer=tracer)


def atm_background(algorithm: str = "phantom",
                   algorithm_params: Mapping[str, Any] | None = None,
                   n_sessions: int = 2, cbr_rate: float = 60.0,
                   cbr_start: float = 0.15, cbr_stop: float = 0.30,
                   duration: float = 0.45, link_rate: float = 150.0,
                   tracer=None) -> AtmRun:
    from repro.scenarios.atm import background_config

    return _atm_run(background_config(
        n_sessions=n_sessions, cbr_rate=cbr_rate, cbr_start=cbr_start,
        cbr_stop=cbr_stop, duration=duration, link_rate=link_rate),
        algorithm, algorithm_params, tracer=tracer)


def atm_weighted(algorithm: str = "phantom",
                 algorithm_params: Mapping[str, Any] | None = None,
                 weights: Mapping[str, float] | None = None,
                 duration: float = 0.3, link_rate: float = 150.0,
                 tracer=None) -> AtmRun:
    from repro.scenarios.atm import weighted_config

    return _atm_run(weighted_config(
        weights=weights, duration=duration, link_rate=link_rate),
        algorithm, algorithm_params, tracer=tracer)


def fuzz_generic(config: Mapping[str, Any], seed: int | None = None,
                 tracer=None) -> AtmRun:
    """Config-driven ATM scenario — the fuzzer's resolution target.

    The whole scenario (topology, sessions, schedules, algorithm)
    arrives as the spec's inline ``config`` mapping; the algorithm
    name/params are resolved against the same table the other ATM
    entries use.
    """
    return _atm_run(config, config.get("algorithm", "phantom"),
                    config.get("algorithm_params"), seed=seed,
                    tracer=tracer)


def fuzz_param_deps(params: dict) -> tuple[str, ...]:
    config = params.get("config") or {}
    if not isinstance(config, Mapping):
        raise ValueError(f"config must be a mapping, got "
                         f"{type(config).__name__}")
    return (_algorithm_module(config.get("algorithm", "phantom")),)


# ----------------------------------------------------------------------
# fluid entries: the same configs rendered by build_fluid
# ----------------------------------------------------------------------
def _fluid_run(config: Mapping[str, Any],
               phantom_params: Mapping[str, Any] | None, tracer,
               **options: Any):
    from repro.fluid.scenarios import build_fluid

    return build_fluid(config, tracer=tracer, **options,
                       **_phantom_params(phantom_params))


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
                    phantom_params: Mapping[str, Any] | None = None,
                    tracer=None):
    from repro.scenarios.atm import staggered_config

    config = staggered_config(
        n_sessions=n_sessions, stagger=stagger, duration=duration,
        link_rate=link_rate, session_params=session_params)
    return _fluid_run(dict(config, rm_loss=rm_loss), phantom_params,
                      tracer, flows_per_session=flows_per_session,
                      mode=mode, use_ni=use_ni, ni_fraction=ni_fraction)


def fluid_onoff(greedy: int = 1, bursty: int = 2, on_time: float = 0.02,
                off_time: float = 0.02, duration: float = 0.4,
                link_rate: float = 150.0, flows_per_session: int = 1,
                seed: int = 7,
                session_params: Mapping[str, Any] | None = None,
                phantom_params: Mapping[str, Any] | None = None,
                tracer=None):
    from repro.scenarios.atm import onoff_config

    return _fluid_run(onoff_config(
        greedy=greedy, bursty=bursty, on_time=on_time, off_time=off_time,
        duration=duration, link_rate=link_rate,
        session_params=session_params), phantom_params, tracer,
        flows_per_session=flows_per_session, seed=seed)


def fluid_parking(hops: int = 3, duration: float = 0.3,
                  link_rate: float = 150.0, flows_per_session: int = 1,
                  session_params: Mapping[str, Any] | None = None,
                  phantom_params: Mapping[str, Any] | None = None,
                  tracer=None):
    from repro.scenarios.atm import parking_config

    return _fluid_run(parking_config(
        hops=hops, duration=duration, link_rate=link_rate,
        session_params=session_params), phantom_params, tracer,
        flows_per_session=flows_per_session)


def fluid_transient(duration: float = 0.4, join_at: float = 0.1,
                    leave_at: float = 0.25, link_rate: float = 150.0,
                    flows_per_session: int = 1,
                    session_params: Mapping[str, Any] | None = None,
                    phantom_params: Mapping[str, Any] | None = None,
                    tracer=None):
    from repro.scenarios.atm import transient_config

    return _fluid_run(transient_config(
        duration=duration, join_at=join_at, leave_at=leave_at,
        link_rate=link_rate, session_params=session_params),
        phantom_params, tracer, flows_per_session=flows_per_session)


def fluid_many(cohorts: int = 1000, flows_per_cohort: int = 1000,
               greedy: int = 100, background_load: float = 0.7,
               duration: float = 1.0, link_rate: float = 10000.0,
               record_cohorts: bool = False,
               session_params: Mapping[str, Any] | None = None,
               phantom_params: Mapping[str, Any] | None = None,
               tracer=None):
    from repro.atm.params import AbrParams
    from repro.fluid.scenarios import many_flows

    return many_flows(
        cohorts=cohorts, flows_per_cohort=flows_per_cohort,
        greedy=greedy, background_load=background_load,
        duration=duration, link_rate=link_rate,
        params=AbrParams(**dict(session_params or {})),
        record_cohorts=record_cohorts, tracer=tracer,
        **_phantom_params(phantom_params))


def fluid_hybrid_e01(foreground: int = 2, background: int = 500,
                     background_demand_mbps: float = 0.2,
                     stagger: float = 0.03, duration: float = 0.25,
                     link_rate: float = 150.0,
                     session_params: Mapping[str, Any] | None = None,
                     phantom_params: Mapping[str, Any] | None = None,
                     tracer=None):
    from repro.fluid.hybrid import hybrid_staggered

    return hybrid_staggered(
        foreground=foreground, background=background,
        background_demand_mbps=background_demand_mbps, stagger=stagger,
        duration=duration, link_rate=link_rate,
        session_params=session_params, tracer=tracer,
        **_phantom_params(phantom_params))


# ----------------------------------------------------------------------
# TCP entries: a repro.scenarios.tcp config rendered by build_tcp
# ----------------------------------------------------------------------
def _tcp_run(config: Mapping[str, Any], policy: str,
             policy_params: Mapping[str, Any] | None, tracer) -> TcpRun:
    from repro.scenarios.tcp import build_tcp

    return build_tcp(config, policy_factory=_policy_factory(
        policy, policy_params), tracer=tracer)


def tcp_rtt(policy: str = "selective-discard",
            policy_params: Mapping[str, Any] | None = None,
            access_delays: Sequence[float] = (1e-3, 4e-3),
            duration: float = 30.0, trunk_rate: float = 10.0,
            tracer=None) -> TcpRun:
    from repro.scenarios.tcp import rtt_config

    return _tcp_run(rtt_config(
        access_delays=access_delays, duration=duration,
        trunk_rate=trunk_rate), policy, policy_params, tracer)


def tcp_parking(policy: str = "selective-discard",
                policy_params: Mapping[str, Any] | None = None,
                hops: int = 3, duration: float = 30.0,
                trunk_rate: float = 10.0, tracer=None) -> TcpRun:
    from repro.scenarios.tcp import parking_config

    return _tcp_run(parking_config(
        hops=hops, duration=duration, trunk_rate=trunk_rate),
        policy, policy_params, tracer)


def tcp_many(policy: str = "selective-discard",
             policy_params: Mapping[str, Any] | None = None,
             n_flows: int = 4, duration: float = 30.0,
             trunk_rate: float = 10.0, access_delay: float = 2e-3,
             tracer=None) -> TcpRun:
    from repro.scenarios.tcp import many_config

    return _tcp_run(many_config(
        n_flows=n_flows, duration=duration, trunk_rate=trunk_rate,
        access_delay=access_delay), policy, policy_params, tracer)


def tcp_vegas(policy: str = "selective-discard",
              policy_params: Mapping[str, Any] | None = None,
              hungry: Sequence[float] = (8.0, 10.0),
              modest: Sequence[float] = (1.0, 2.0),
              duration: float = 30.0, trunk_rate: float = 10.0,
              tracer=None) -> TcpRun:
    from repro.scenarios.tcp import vegas_config

    return _tcp_run(vegas_config(
        hungry=hungry, modest=modest, duration=duration,
        trunk_rate=trunk_rate), policy, policy_params, tracer)


def tcp_mixed(policy: str = "selective-discard",
              policy_params: Mapping[str, Any] | None = None,
              duration: float = 30.0, trunk_rate: float = 10.0,
              tracer=None) -> TcpRun:
    from repro.scenarios.tcp import mixed_config

    return _tcp_run(mixed_config(duration=duration, trunk_rate=trunk_rate),
                    policy, policy_params, tracer)


def tcp_twoway(policy: str = "selective-discard",
               policy_params: Mapping[str, Any] | None = None,
               flows_per_direction: int = 2, duration: float = 30.0,
               trunk_rate: float = 10.0, tracer=None) -> TcpRun:
    from repro.scenarios.tcp import two_way_config

    return _tcp_run(two_way_config(
        flows_per_direction=flows_per_direction, duration=duration,
        trunk_rate=trunk_rate), policy, policy_params, tracer)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
_ATM_DEPS = ("repro.scenarios.atm", "repro.scenarios.generic")
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
                  deps=_ATM_DEPS, param_deps=atm_param_deps)
register_scenario("atm.weighted", atm_weighted, kind="atm",
                  deps=_ATM_DEPS, param_deps=atm_param_deps)
register_scenario("fuzz.generic", fuzz_generic, kind="atm",
                  deps=("repro.scenarios.generic",),
                  param_deps=fuzz_param_deps)

_FLUID_DEPS = ("repro.scenarios.atm", "repro.fluid.scenarios")

register_scenario("fluid.staggered", fluid_staggered, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.onoff", fluid_onoff, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.parking", fluid_parking, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.transient", fluid_transient, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.many", fluid_many, kind="fluid",
                  deps=("repro.fluid.scenarios",))
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
