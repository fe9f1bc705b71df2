"""Config-driven ATM scenario construction.

:func:`build_atm` renders a :mod:`repro.scenarios.config` config cell by
cell: chains, parking lots and asymmetric meshes, greedy, on/off and
joining/leaving ABR sessions, CBR/VBR background, and RM-cell loss on
the backward access links.  The registry's ATM entries and
``fuzz.generic`` all call it inside the worker; an inline config's
canonical JSON is part of the task fingerprint, so generated runs cache
like registered ones.

Randomness (on/off periods, VBR state durations, RM-loss coin flips) is
drawn exclusively from per-name :class:`repro.sim.rng.RngStreams`
streams seeded by the ``seed`` argument, so a config + seed pair
reproduces bit-identically and dropping one component never perturbs
another's sample path (the property the shrinker relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.analysis import jain_index, queue_stats, utilization
from repro.atm import AbrParams, AtmNetwork
from repro.atm.link import Link
from repro.atm.port import OutputPort
from repro.scenarios.config import bottleneck, validate_config
from repro.scenarios.workloads import OnOffDriver
from repro.sim import Probe, RngStreams


@dataclass
class AtmRun:
    """A completed ATM scenario."""

    net: AtmNetwork
    bottleneck: OutputPort
    duration: float

    @property
    def queue_probe(self) -> Probe:
        return self.bottleneck.queue_probe

    @property
    def macr_probe(self) -> Probe | None:
        return getattr(self.bottleneck.algorithm, "macr_probe", None)

    def steady_window(self, fraction: float = 0.25) -> tuple[float, float]:
        """The last ``fraction`` of the run, where steady state is read."""
        return self.duration * (1 - fraction), self.duration

    def steady_rates(self, fraction: float = 0.25) -> dict[str, float]:
        """Mean goodput per session over the steady window (Mb/s)."""
        start, end = self.steady_window(fraction)
        return {
            vc: session.rate_probe.window(start, end).mean()
            for vc, session in self.net.sessions.items()
        }

    def jain(self, fraction: float = 0.25) -> float:
        return jain_index(self.steady_rates(fraction).values())

    def utilization(self, fraction: float = 0.25) -> float:
        """Steady goodput of the sessions crossing the bottleneck, over
        its rate."""
        start, end = self.steady_window(fraction)
        routes = self.net.routes()
        probes = [session.rate_probe
                  for vc, session in self.net.sessions.items()
                  if self.bottleneck.name in routes[vc]]
        return utilization(probes, self.bottleneck.rate_mbps, start, end)

    def queue_stats(self, start: float = 0.0,
                    end: float | None = None) -> dict[str, float]:
        return queue_stats(self.queue_probe, start, end or self.duration)


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
            params=AbrParams(**dict(entry.get("params") or {})),
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
    result = AtmRun(net=net, bottleneck=net.trunk(*bottleneck(config)),
                    duration=duration)
    if run:
        net.run(until=duration)
    return result
