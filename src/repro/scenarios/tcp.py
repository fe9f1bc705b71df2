"""The TCP configurations of the paper's Section 4.3, and their renderer.

Each configuration is a function returning a scenario config
(:mod:`repro.scenarios.config`): routers as ``switches``, flows as
``sessions``, the trunk rate as ``link_rate``.  :func:`build_tcp`
renders it as greedy TCP flows whose routers' trunk ports all run one
queue policy.

The router-side control loop runs on coarser timescales than the ATM one
(TCP's CR stamp is an acked-payload average), so the MACR parameters used
for routers differ from the cell-level defaults; the calibrated values
live in :data:`TCP_PHANTOM_PARAMS` and are shared by every router
mechanism.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro.analysis import jain_index, queue_stats
from repro.core.params import PhantomParams
from repro.scenarios.config import bottleneck, validate_config
from repro.sim import Probe
from repro.tcp import (DropTail, PacketPort, RenoParams, SelectiveDiscard,
                       SelectiveEfci, SelectiveQuench, SelectiveRed,
                       TcpNetwork, TcpRenoSource, TcpTahoeSource,
                       TcpVegasSource, VegasParams)
from repro.tcp.router import QueuePolicy

PolicyFactory = Callable[[], QueuePolicy]

#: MACR parameters calibrated for router timescales: the measurement
#: interval matches the sources' CR estimation period, and the decrease
#: gain is halved relative to the ATM loop because TCP windows need a
#: couple of RTTs to obey a lowered grant.  The grant floor exists to
#: keep the ATM RM feedback loop alive and is disabled here: a TCP
#: source that just throttled stamps CR ≈ 0 and is conformant again, so
#: the loop cannot starve, while a floored grant under deep overload
#: concentrates drop pressure unfairly on whichever flow ramps first.
TCP_PHANTOM_PARAMS = PhantomParams(interval=0.05, alpha_inc=0.25,
                                   alpha_dec=0.125,
                                   grant_floor_fraction=0.0)

#: Reno configuration used in all Section-4 scenarios: the paper's
#: 512-byte packets with a 20 ms CR measurement interval.
TCP_RENO_PARAMS = RenoParams(rate_interval=0.02)

#: A session's ``stack`` -> its sender class and that sender's params.
STACKS: dict[str, tuple[type[TcpRenoSource], type[RenoParams]]] = {
    "reno": (TcpRenoSource, RenoParams),
    "tahoe": (TcpTahoeSource, RenoParams),
    "vegas": (TcpVegasSource, VegasParams),
}


# The factories return functools.partial objects bound to module-level
# policy classes — picklable, so an executor (repro.exec) can ship a
# resolved factory to a worker process, where a lambda/closure could not
# be shipped at all.

def drop_tail_policy(buffer_packets: int = 100) -> PolicyFactory:
    return partial(DropTail, buffer_packets)


def selective_discard_policy(buffer_packets: int = 100,
                             drop_gap: float = 0.04,
                             params: PhantomParams = TCP_PHANTOM_PARAMS,
                             ) -> PolicyFactory:
    return partial(SelectiveDiscard, buffer_packets=buffer_packets,
                   params=params, drop_gap=drop_gap)


def selective_quench_policy(buffer_packets: int = 100,
                            min_gap: float = 0.04,
                            params: PhantomParams = TCP_PHANTOM_PARAMS,
                            ) -> PolicyFactory:
    return partial(SelectiveQuench, buffer_packets=buffer_packets,
                   params=params, min_gap=min_gap)


def selective_efci_policy(buffer_packets: int = 400,
                          params: PhantomParams = TCP_PHANTOM_PARAMS,
                          ) -> PolicyFactory:
    return partial(SelectiveEfci, buffer_packets=buffer_packets,
                   params=params)


def selective_red_policy(buffer_packets: int = 100,
                         params: PhantomParams = TCP_PHANTOM_PARAMS,
                         **red_kwargs) -> PolicyFactory:
    return partial(SelectiveRed, buffer_packets=buffer_packets,
                   params=params, **red_kwargs)


# ----------------------------------------------------------------------
# the configurations
# ----------------------------------------------------------------------
#: The one-bottleneck route most configurations share.
_ROUTE = ["R1", "R2"]


def _flow(name: str, route: Sequence[str] = _ROUTE,
          **keys: Any) -> dict[str, Any]:
    return {"vc": name, "route": list(route), **keys}


def _one_trunk(flows: list[dict[str, Any]], duration: float,
               trunk_rate: float) -> dict[str, Any]:
    return {"switches": list(_ROUTE), "trunks": [{"a": "R1", "b": "R2"}],
            "sessions": flows, "link_rate": trunk_rate,
            "duration": duration}


def rtt_config(access_delays: Sequence[float] = (1e-3, 4e-3),
               duration: float = 30.0, trunk_rate: float = 10.0
               ) -> dict[str, Any]:
    """E09-E10, E12-E13: flows with different RTTs share one bottleneck
    (Fig. 14).

    The paper has drop-tail starve the long-RTT flow.  Here drop-tail
    starves the *short*-RTT flow instead (1.38 vs 7.86 Mb/s at 25 s);
    Selective Discard hands both nearly the same grant (4.94 vs 3.46).
    """
    return _one_trunk([_flow(f"rtt{i}", access_delay=delay)
                       for i, delay in enumerate(access_delays)],
                      duration, trunk_rate)


def parking_config(hops: int = 3, duration: float = 30.0,
                   trunk_rate: float = 10.0) -> dict[str, Any]:
    """E09-E10: multi-router beat-down test (Fig. 17): one long flow
    crosses all routers, one cross flow per trunk."""
    if hops < 2:
        raise ValueError(f"need >= 2 hops, got {hops!r}")
    names = [f"R{i}" for i in range(1, hops + 2)]
    hop_pairs = list(zip(names, names[1:]))
    flows = [_flow("long", route=names)]
    flows += [_flow(f"cross{i}", route=pair)
              for i, pair in enumerate(hop_pairs)]
    return {"switches": names,
            "trunks": [{"a": a, "b": b} for a, b in hop_pairs],
            "sessions": flows, "link_rate": trunk_rate,
            "duration": duration}


def many_config(n_flows: int = 4, duration: float = 30.0,
                trunk_rate: float = 10.0, access_delay: float = 2e-3
                ) -> dict[str, Any]:
    """E11: n equal flows through one bottleneck — goodput split and
    queue."""
    if n_flows < 1:
        raise ValueError(f"need >= 1 flow, got {n_flows!r}")
    return _one_trunk([_flow(f"f{i}", access_delay=access_delay)
                       for i in range(n_flows)], duration, trunk_rate)


def vegas_config(hungry: Sequence[float] = (8.0, 10.0),
                 modest: Sequence[float] = (1.0, 2.0),
                 duration: float = 30.0, trunk_rate: float = 10.0
                 ) -> dict[str, Any]:
    """E21: the paper's Vegas sensitivity example (§4, [BP95]).

    Two Vegas flows whose thresholds don't overlap (α of one above β of
    the other): Vegas has "no mechanism that would balance them", while
    a Phantom router equalises them by rate.
    """
    return _one_trunk([
        _flow(name, access_delay=2e-3, stack="vegas",
              params={"vegas_alpha": alpha, "vegas_beta": beta})
        for name, (alpha, beta) in (("hungry", hungry),
                                    ("modest", modest))],
        duration, trunk_rate)


def mixed_config(duration: float = 30.0, trunk_rate: float = 10.0
                 ) -> dict[str, Any]:
    """E22: Reno, Tahoe and Vegas sharing a bottleneck.

    The abstract's interoperability claim: the router-side mechanism
    "easily inter-operates with current TCP flow control mechanisms",
    equalising flows whatever source stack they run.
    """
    return _one_trunk([_flow(stack, access_delay=2e-3, stack=stack)
                       for stack in ("reno", "tahoe", "vegas")],
                      duration, trunk_rate)


def two_way_config(flows_per_direction: int = 2, duration: float = 30.0,
                   trunk_rate: float = 10.0) -> dict[str, Any]:
    """E26: data in both directions, so each trunk queue carries one
    direction's data *and* the other direction's ACKs (ACK compression
    makes the reverse flows bursty); the Phantom policies must keep
    working."""
    if flows_per_direction < 1:
        raise ValueError(
            f"need >= 1 flow per direction, got {flows_per_direction!r}")
    flows = []
    for i in range(flows_per_direction):
        flows.append(_flow(f"east{i}", access_delay=2e-3))
        flows.append(_flow(f"west{i}", route=["R2", "R1"],
                           access_delay=2e-3))
    return _one_trunk(flows, duration, trunk_rate)


# ----------------------------------------------------------------------
# the renderer
# ----------------------------------------------------------------------
@dataclass
class TcpRun:
    """A completed TCP scenario."""

    net: TcpNetwork
    bottleneck: PacketPort
    duration: float

    @property
    def queue_probe(self) -> Probe:
        return self.bottleneck.queue_probe

    @property
    def macr_probe(self) -> Probe | None:
        return getattr(self.bottleneck.policy, "macr_probe", None)

    def goodputs(self) -> dict[str, float]:
        """Whole-run goodput per flow (Mb/s)."""
        return {
            name: flow.sink.bytes_received * 8 / self.duration / 1e6
            for name, flow in self.net.flows.items()
        }

    def jain(self) -> float:
        return jain_index(self.goodputs().values())

    def total_goodput(self) -> float:
        return sum(self.goodputs().values())

    def queue_stats(self, start: float = 0.0,
                    end: float | None = None) -> dict[str, float]:
        return queue_stats(self.queue_probe, start, end or self.duration)


def _refuse_untranslatable(config: Mapping[str, Any]) -> None:
    """Raise on what a config says that greedy TCP flows cannot do."""
    for key in ("cbr", "vbr", "rm_loss"):
        if config.get(key):
            raise ValueError(f"the TCP tier cannot render {key!r}")
    for entry in config["sessions"]:
        for key in ("onoff", "stop"):
            if entry.get(key) not in (None, {}):
                raise ValueError(f"session {entry['vc']!r}: the TCP tier "
                                 f"cannot render {key!r}")
        if entry.get("stack", "reno") not in STACKS:
            raise ValueError(f"session {entry['vc']!r}: unknown 'stack' "
                             f"{entry['stack']!r}; known: "
                             f"{', '.join(STACKS)}")


def build_tcp(config: Mapping[str, Any], *, policy_factory: PolicyFactory,
              tracer=None, run: bool = True) -> TcpRun:
    """Build (and by default run) the TCP network a config describes.

    Every trunk port runs a policy made by ``policy_factory``, which
    also sets its buffer (``buffer_cells`` and ``algorithm`` are ignored).
    CBR/VBR, RM-cell loss, on/off sessions, departures and an unknown
    ``stack`` are refused.
    """
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid scenario config: " + "; ".join(problems))
    _refuse_untranslatable(config)
    net = TcpNetwork(policy_factory=policy_factory,
                     trunk_rate=float(config.get("link_rate", 150.0)),
                     tracer=tracer)
    for name in config["switches"]:
        net.add_router(name)
    for trunk in config["trunks"]:
        net.connect(trunk["a"], trunk["b"], rate=trunk.get("rate"),
                    delay=trunk.get("delay"))
    for entry in config["sessions"]:
        source_class, params_class = STACKS[entry.get("stack", "reno")]
        params = params_class(**{**asdict(TCP_RENO_PARAMS),
                                 **dict(entry.get("params") or {})})
        net.add_flow(entry["vc"], route=list(entry["route"]),
                     start=float(entry.get("start", 0.0)), params=params,
                     access_delay=entry.get("access_delay"),
                     source_class=source_class)
    duration = float(config.get("duration", 0.25))
    result = TcpRun(net=net, bottleneck=net.trunk(*bottleneck(config)),
                    duration=duration)
    if run:
        net.run(until=duration)
    return result


def rtt_fairness(policy_factory: PolicyFactory,
                 access_delays: tuple[float, ...] = (1e-3, 4e-3),
                 duration: float = 30.0, trunk_rate: float = 10.0,
                 tracer=None, run: bool = True) -> TcpRun:
    """:func:`rtt_config` rendered by :func:`build_tcp`.

    Kept for the ``tcp_discard`` workload of ``benchmarks/e2e``, which
    imports it; everything else renders the config.
    """
    return build_tcp(rtt_config(access_delays, duration, trunk_rate),
                     policy_factory=policy_factory, tracer=tracer, run=run)
