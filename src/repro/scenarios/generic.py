"""Generic, config-driven ATM scenario construction.

:func:`build_atm` reads a fully self-describing **scenario config** — a
plain JSON-able mapping — and assembles any single-path topology the
packet substrate supports: chains, parking lots, and asymmetric meshes
with per-trunk rates and delays, greedy, on/off and joining/leaving ABR
sessions, CBR/VBR background streams, and RM-cell loss on the backward
access links.

The paper's configurations are such configs
(:mod:`repro.scenarios.atm`), and so is every scenario the fuzzer
(:mod:`repro.fuzz`) emits: the registry's ATM entries and
``fuzz.generic`` all call :func:`build_atm` inside the worker.  An
inline config's canonical JSON is part of the task fingerprint, so
generated runs cache exactly like registered ones.
:func:`repro.fluid.scenarios.build_fluid` renders the same configs on
the fluid tier.

Config schema (all keys except ``switches``/``trunks``/``sessions``
optional)::

    {"switches": ["S1", "S2"],
     "trunks": [{"a": "S1", "b": "S2", "rate": 150.0, "delay": 1e-5}],
     "sessions": [{"vc": "s0", "route": ["S1", "S2"], "start": 0.0,
                   "stop": 0.3, "access_delay": 1e-5,
                   "params": {"weight": 2.0},
                   "onoff": {"on": 0.02, "off": 0.02,
                             "stream": "onoff.s0"}}],
     "cbr": [{"vc": "bg0", "route": ["S1", "S2"], "rate": 40.0,
              "start": 0.0, "stop": 0.2}],
     "vbr": [{"vc": "vb0", "route": ["S1", "S2"], "peak": 40.0,
              "mean_on": 0.01, "mean_off": 0.02}],
     "algorithm": "phantom", "algorithm_params": {"interval": 1e-3},
     "link_rate": 150.0, "rm_loss": 0.0, "duration": 0.25,
     "bottleneck": ["S1", "S2"]}

A session's ``stop`` silences its source at that time (default: never);
it cannot be combined with ``onoff``, whose driver would wake the
source again.  An on/off session's ``stream`` names the random stream
its phases are drawn from (default ``onoff.<vc>``).

Randomness (on/off periods, VBR state durations, RM-loss coin flips) is
drawn exclusively from per-name :class:`repro.sim.rng.RngStreams`
streams seeded by the ``seed`` argument, so a config + seed pair
reproduces bit-identically and dropping one component never perturbs
another's sample path (the property the shrinker relies on).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.atm import AbrParams, AtmNetwork
from repro.atm.link import Link
from repro.scenarios.results import AtmRun
from repro.scenarios.workloads import OnOffDriver
from repro.sim import RngStreams


def validate_config(config: Mapping[str, Any]) -> list[str]:
    """Structural problems with a scenario config (empty = valid).

    Deep semantic validation (capacities positive, routes connected) is
    left to network construction, which raises with precise messages;
    this check catches the shape errors that would otherwise surface as
    confusing ``TypeError``s deep inside the builder.
    """
    problems: list[str] = []
    if not isinstance(config, Mapping):
        return ["config is not a mapping"]
    for key in ("switches", "trunks", "sessions"):
        value = config.get(key)
        if not isinstance(value, (list, tuple)) or not value:
            problems.append(f"{key!r} must be a non-empty list")
    for i, trunk in enumerate(config.get("trunks") or []):
        if not isinstance(trunk, Mapping) or "a" not in trunk \
                or "b" not in trunk:
            problems.append(f"trunks[{i}] needs 'a' and 'b' switch names")
    # trunks are bidirectional port pairs, so adjacency is symmetric
    adjacent: set[tuple[str, str]] = set()
    for trunk in config.get("trunks") or []:
        if isinstance(trunk, Mapping) and "a" in trunk and "b" in trunk:
            adjacent.add((trunk["a"], trunk["b"]))
            adjacent.add((trunk["b"], trunk["a"]))
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


def _session_params(overrides: Mapping[str, Any] | None) -> AbrParams:
    return AbrParams(**dict(overrides or {}))


def _bottleneck_trunk(net: AtmNetwork, config: Mapping[str, Any]):
    """The port whose queue/MACR series the run handle reports.

    ``bottleneck: [a, b]`` picks one explicitly; the default is the
    trunk crossed by the most sessions (ties broken by name, so the
    choice is deterministic)."""
    chosen = config.get("bottleneck")
    if chosen:
        return net.trunk(chosen[0], chosen[1])
    crossings: dict[str, int] = {name: 0 for name in net.capacities()}
    for path in net.routes().values():
        for link in path:
            crossings[link] += 1
    busiest = max(sorted(crossings), key=lambda name: crossings[name])
    a, b = busiest.split("->")
    return net.trunk(a, b)


def _inject_rm_loss(net: AtmNetwork, rm_loss: float,
                    streams: RngStreams) -> None:
    """Replace each session's backward access link with a lossy twin.

    The twin keeps the replaced link's rate and propagation delay, so a
    session's drawn access delay still applies to its feedback leg.
    The switch's per-VC dispatch cache must move with the route table or
    the lossless original keeps receiving the cells.
    """
    for vc, session in net.sessions.items():
        first_switch = net.switches[session.route[0]]
        replaced = first_switch._backward[vc]
        lossy = Link(net.sim, replaced.rate_mbps, replaced.propagation,
                     session.source, name=f"{vc}.back.lossy",
                     loss_rate=rm_loss,
                     rng=streams.stream(f"rmloss.{vc}"))
        first_switch._backward[vc] = lossy
        first_switch._backward_recv[vc] = lossy.receive


def build_atm(config: Mapping[str, Any], *, algorithm_factory,
              seed: int | None = 0, tracer=None,
              run: bool = True) -> AtmRun:
    """Build (and by default run) the ATM network a config describes.

    ``algorithm_factory`` is a zero-arg switch-algorithm factory.  It is
    a required argument — deliberately NOT resolved here from the
    config's ``algorithm``/``algorithm_params`` keys, because importing
    the algorithm tables would drag every algorithm module into this
    module's import closure and so into every generated task's
    fingerprint.  The ``fuzz.generic`` registry entry
    (:func:`repro.exec.entries.fuzz_generic`) does the resolution, and
    its ``param_deps`` hook keeps cache sensitivity scoped to the
    *chosen* algorithm's module, exactly like the hand-written entries.
    """
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid scenario config: " + "; ".join(problems))
    root_seed = seed if seed is not None else 0
    net = AtmNetwork(algorithm_factory=algorithm_factory,
                     link_rate=float(config.get("link_rate", 150.0)),
                     seed=root_seed, tracer=tracer)
    for name in config["switches"]:
        net.add_switch(name)
    for trunk in config["trunks"]:
        net.connect(trunk["a"], trunk["b"],
                    rate=trunk.get("rate"), delay=trunk.get("delay"),
                    buffer_cells=trunk.get("buffer_cells"))

    streams = RngStreams(root_seed)
    for entry in config["sessions"]:
        vc = entry["vc"]
        session = net.add_session(
            vc, route=list(entry["route"]),
            start=float(entry.get("start", 0.0)),
            params=_session_params(entry.get("params")),
            access_delay=entry.get("access_delay"))
        onoff = entry.get("onoff")
        if onoff:
            # the driver stays alive through its scheduled toggle events
            OnOffDriver(
                net.sim, session.source,
                on_time=float(onoff["on"]), off_time=float(onoff["off"]),
                rng=streams.stream(onoff.get("stream", f"onoff.{vc}")))
        if entry.get("stop") is not None:
            net.sim.schedule_at(float(entry["stop"]),
                                session.source.set_active, False)
    for entry in config.get("cbr") or []:
        net.add_cbr(entry["vc"], route=list(entry["route"]),
                    rate_mbps=float(entry["rate"]),
                    start=float(entry.get("start", 0.0)),
                    stop=entry.get("stop"))
    for entry in config.get("vbr") or []:
        net.add_vbr(entry["vc"], route=list(entry["route"]),
                    peak_mbps=float(entry["peak"]),
                    mean_on=float(entry["mean_on"]),
                    mean_off=float(entry["mean_off"]),
                    seed=int(entry.get("seed", 0)),
                    start=float(entry.get("start", 0.0)),
                    stop=entry.get("stop"))
    rm_loss = float(config.get("rm_loss", 0.0))
    if rm_loss > 0.0:
        _inject_rm_loss(net, rm_loss, streams)

    duration = float(config.get("duration", 0.25))
    result = AtmRun(net=net, bottleneck=_bottleneck_trunk(net, config),
                    duration=duration)
    if run:
        net.run(until=duration)
    return result
