"""Fluid scenarios: scenario configs rendered as rates, and the
million-flow scale scenario.

:func:`build_fluid` renders the same :mod:`repro.scenarios.config`
config that :func:`repro.scenarios.generic.build_atm` runs cell by cell
— the paper's configurations in :mod:`repro.scenarios.atm` included —
so the validation suite can run one description on both tiers and
compare steady-state results name-for-name.  The extra knobs are the
fluid tier's own: ``flows_per_session`` scales every session into a
cohort of identical flows at no extra stepping cost, and ``mode``
switches the source law to binary CI marking.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Mapping

from repro.atm.params import AbrParams, PAPER_PARAMS
from repro.core.params import DEFAULT_PHANTOM_PARAMS, PhantomParams
from repro.fluid.model import FluidNetwork
from repro.fluid.results import FluidRun
from repro.scenarios.config import bottleneck, topology
from repro.sim.rng import RngStreams

#: Grant floor disabled: with thousands of flows, holding every silent
#: source at 5% of the line rate would alone oversubscribe the trunk.
#: The floor exists to keep packet RM feedback alive through transients,
#: which the fluid model does not need.
MANY_FLOW_PHANTOM = PhantomParams(grant_floor_fraction=0.0)


def build_fluid(config: Mapping[str, Any], *, flows_per_session: int = 1,
                phantom: PhantomParams = DEFAULT_PHANTOM_PARAMS,
                mode: str = "er", use_ni: bool = False,
                ni_fraction: float = 0.8, seed: int | None = 0,
                tracer=None, run: bool = True) -> FluidRun:
    """Build (and by default run) the fluid twin of a scenario config.

    Each port a route crosses becomes a trunk named ``a->b`` like the
    packet port, at its :func:`~repro.scenarios.config.topology` rate;
    each session becomes a cohort of ``flows_per_session`` flows under
    the session's name, with its start, stop, on/off means and ABR
    params; ``rm_loss`` thins every cohort's feedback.  The bottleneck
    is :func:`~repro.scenarios.config.bottleneck`'s, as on the packet
    tier.  An on/off cohort draws its phases from the ``seed`` stream
    the config's ``stream`` names, as the packet driver does.  The
    switch algorithm, delays and buffers are packet-tier keys (``mode``
    and ``phantom`` choose the fluid law), and a config with CBR/VBR
    background is refused: the fluid model has no guaranteed class.
    """
    for key in ("cbr", "vbr"):
        if config.get(key):
            raise ValueError(f"the fluid tier cannot render {key!r} "
                             "background traffic")
    net = FluidNetwork(phantom=phantom, mode=mode, use_ni=use_ni,
                       ni_fraction=ni_fraction, tracer=tracer)
    streams = RngStreams(seed if seed is not None else 0)
    capacities, routes = topology(config)
    rm_loss = float(config.get("rm_loss", 0.0))
    for entry in config["sessions"]:
        vc = entry["vc"]
        for hop in routes[vc]:
            if hop not in net.trunks:
                net.add_trunk(hop, capacity_mbps=capacities[hop])
        onoff = entry.get("onoff") or {}
        cohort = net.add_cohort(
            vc, routes[vc], count=flows_per_session,
            params=AbrParams(**dict(entry.get("params") or {})),
            start=float(entry.get("start", 0.0)),
            on_time=onoff.get("on"), off_time=onoff.get("off"),
            rng=(streams.stream(onoff.get("stream", f"onoff.{vc}"))
                 if onoff else None),
            rm_loss=rm_loss)
        if entry.get("stop") is not None:
            net.at(float(entry["stop"]), partial(cohort.set_active, False))
    duration = float(config.get("duration", 0.25))
    result = FluidRun(net=net,
                      bottleneck=net.trunks["->".join(bottleneck(config))],
                      duration=duration)
    if run:
        net.run(until=duration)
    return result


def many_flows(cohorts: int = 1000,
               flows_per_cohort: int = 1000,
               greedy: int = 100,
               background_load: float = 0.7,
               duration: float = 1.0,
               link_rate: float = 10000.0,
               params: AbrParams = PAPER_PARAMS,
               phantom: PhantomParams = MANY_FLOW_PHANTOM,
               record_cohorts: bool = False,
               tracer=None,
               run: bool = True) -> FluidRun:
    """The scale scenario: a million-flow trunk with a realistic mix.

    ``cohorts × flows_per_cohort`` demand-limited background flows
    carry ``background_load`` of the trunk between them, while
    ``greedy`` individual greedy flows exercise Phantom's convergence
    loop over the leftover capacity.  Defaults put 1,000,100 flows on
    one 10 Gb/s trunk.

    Why the mix rather than a million greedy flows: with TM 4.0 paper
    constants the per-RM additive step AIR·Nrm = 42.5 Mb/s dwarfs a
    millibit fair share, so a million greedy sources form a mean-field
    relaxation oscillator (each Trm-backstop RM re-floods the trunk
    40x over) — honest dynamics of those constants, not a model
    artefact.  Real million-user trunks are demand-limited aggregates;
    the greedy minority is what the control loop actually steers, and
    it converges near the analytic share f·(C − background)/(n·f + 1).
    Cohort probe recording is off by default so the run measures the
    stepper, not probe appends.
    """
    if not 0.0 <= background_load < 1.0:
        raise ValueError(
            f"background_load must be in [0, 1), got {background_load!r}")
    net = FluidNetwork(phantom=phantom, record_cohorts=record_cohorts,
                       tracer=tracer)
    trunk = net.add_trunk("T1", capacity_mbps=link_rate)
    flows = cohorts * flows_per_cohort
    demand = background_load * link_rate / flows if flows else 0.0
    for i in range(cohorts):
        net.add_cohort(f"bg{i}", route=["T1"], count=flows_per_cohort,
                       params=params, demand_mbps=demand)
    for i in range(greedy):
        net.add_cohort(f"fg{i}", route=["T1"], count=1, params=params)
    result = FluidRun(net=net, bottleneck=trunk, duration=duration)
    if run:
        net.run(until=duration)
    return result
