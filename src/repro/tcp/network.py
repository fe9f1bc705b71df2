"""Declarative TCP/IP network construction (paper Section 4.3 setups).

Mirrors :class:`repro.atm.AtmNetwork`: routers joined by directed trunk
ports (each with its own queue policy instance), flows with per-edge
access links, and per-flow goodput meters.

Example — two Reno flows through a drop-tail bottleneck::

    net = TcpNetwork(policy_factory=lambda: DropTail(50))
    net.add_router("R1")
    net.add_router("R2")
    net.connect("R1", "R2", rate=10.0)
    net.add_flow("a", route=["R1", "R2"])
    net.add_flow("b", route=["R1", "R2"])
    net.run(until=5.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim import PeriodicTimer, Probe, Simulator
from repro.tcp.link import PacketLink
from repro.tcp.reno import RenoParams, TcpRenoSource
from repro.tcp.router import PacketPort, QueuePolicy, Router
from repro.tcp.sink import TcpSink


@dataclass
class Flow:
    """Handle bundling one TCP flow's components and instruments."""

    name: str
    source: TcpRenoSource
    sink: TcpSink
    route: list[str]
    #: Goodput measured at the sink (Mb/s), sampled periodically.
    goodput_probe: Probe = field(default_factory=Probe)

    @property
    def cwnd_probe(self) -> Probe:
        return self.source.cwnd_probe


class TcpNetwork:
    """Builder/owner of a simulated TCP/IP network."""

    def __init__(self,
                 policy_factory: Callable[[], QueuePolicy] | None = None,
                 trunk_rate: float = 10.0,
                 access_rate: float = 100.0,
                 trunk_delay: float = 1e-3,
                 access_delay: float = 1e-3,
                 meter_interval: float = 0.1,
                 sim: Simulator | None = None,
                 tracer=None):
        self.sim = sim or Simulator()
        # install before any component is built: ports and sources
        # capture their gated tracer at construction
        if tracer is not None:
            self.sim.tracer = tracer
        self.policy_factory = policy_factory or QueuePolicy
        self.trunk_rate = trunk_rate
        self.access_rate = access_rate
        self.trunk_delay = trunk_delay
        self.access_delay = access_delay
        self.meter_interval = meter_interval

        self.routers: dict[str, Router] = {}
        self.flows: dict[str, Flow] = {}
        self._trunks: dict[tuple[str, str], PacketPort] = {}
        self._meters_started = False

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_router(self, name: str) -> Router:
        if name in self.routers:
            raise ValueError(f"router {name!r} already exists")
        router = Router(self.sim, name)
        self.routers[name] = router
        return router

    def _router(self, ref: "Router | str") -> Router:
        if isinstance(ref, Router):
            return ref
        return self.routers[ref]

    def connect(self, a: "Router | str", b: "Router | str",
                rate: float | None = None, delay: float | None = None,
                policy_factory: Callable[[], QueuePolicy] | None = None,
                ) -> None:
        """Create the two directed trunk ports between routers a and b."""
        a, b = self._router(a), self._router(b)
        factory = policy_factory or self.policy_factory
        for src, dst in ((a, b), (b, a)):
            key = (src.name, dst.name)
            if key in self._trunks:
                raise ValueError(f"trunk {key} already exists")
            self._trunks[key] = PacketPort(
                self.sim, name=f"{src.name}->{dst.name}",
                rate_mbps=rate if rate is not None else self.trunk_rate,
                sink=dst, policy=factory(),
                propagation=delay if delay is not None else self.trunk_delay)

    def trunk(self, a: "Router | str", b: "Router | str") -> PacketPort:
        a, b = self._router(a), self._router(b)
        return self._trunks[(a.name, b.name)]

    @property
    def trunks(self) -> dict[tuple[str, str], PacketPort]:
        return dict(self._trunks)

    def capacities(self) -> dict[str, float]:
        """Trunk capacities in Mb/s keyed by port name (``"R1->R2"``),
        in :func:`repro.core.fairness.max_min_allocation` link form."""
        return {port.name: port.rate_mbps
                for port in self._trunks.values()}

    def routes(self) -> dict[str, list[str]]:
        """Each flow's forward path as the trunk-port names it crosses,
        matching :meth:`capacities`' keys for the fairness oracle."""
        return {name: [f"{a}->{b}"
                       for a, b in zip(flow.route, flow.route[1:])]
                for name, flow in self.flows.items()}

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def add_flow(self, name: str, route: list["Router | str"],
                 start: float = 0.0,
                 params: RenoParams = RenoParams(),
                 access_delay: float | None = None,
                 source_class: type[TcpRenoSource] = TcpRenoSource,
                 delayed_ack: bool = False) -> Flow:
        """Create a greedy TCP flow crossing ``route`` in order.

        ``source_class`` selects the sender variant (Reno by default;
        :class:`repro.tcp.TcpTahoeSource` / :class:`repro.tcp.
        TcpVegasSource` for the heterogeneous-stack experiments).
        """
        if name in self.flows:
            raise ValueError(f"flow {name!r} already exists")
        if not route:
            raise ValueError("route must name at least one router")
        hops = [self._router(r) for r in route]
        delay = access_delay if access_delay is not None else self.access_delay

        source = source_class(self.sim, name, params=params,
                              start_time=start)
        sink = TcpSink(self.sim, name, delayed_ack=delayed_ack)

        in_link = PacketLink(
            self.sim, self.access_rate, delay, hops[0], name=f"{name}.in")
        source.attach_link(in_link)
        to_source = PacketLink(
            self.sim, self.access_rate, delay, source, name=f"{name}.back")
        to_sink = PacketLink(
            self.sim, self.access_rate, delay, sink, name=f"{name}.out")
        rev_link = PacketLink(
            self.sim, self.access_rate, delay, hops[-1], name=f"{name}.rev")
        sink.attach_reverse(rev_link)

        for i, router in enumerate(hops):
            forward = (self.trunk(router, hops[i + 1])
                       if i + 1 < len(hops) else to_sink)
            backward = (self.trunk(router, hops[i - 1])
                        if i > 0 else to_source)
            router.connect_flow(name, forward=forward, backward=backward)

        # the in-link only carries this flow's data, the rev-link only
        # its ACKs: both dispatch decisions are constant, so their
        # deliveries skip the edge router's per-packet dispatch
        in_link.bind_direct(hops[0].forward_receiver(name))
        rev_link.bind_direct(hops[-1].backward_receiver(name))

        flow = Flow(name=name, source=source, sink=sink,
                    route=[h.name for h in hops],
                    goodput_probe=Probe(f"{name}.goodput"))
        self.flows[name] = flow
        source.start()
        return flow

    # ------------------------------------------------------------------
    # measurement and execution
    # ------------------------------------------------------------------
    def start_meters(self) -> None:
        """Arm the goodput meters once (before driving :attr:`sim`)."""
        if self._meters_started:
            return
        self._meters_started = True
        counts: dict[str, int] = {}

        def sample(_timer: PeriodicTimer) -> None:
            for name, flow in self.flows.items():
                delta = flow.sink.bytes_received - counts.get(name, 0)
                counts[name] = flow.sink.bytes_received
                rate = delta * 8 / self.meter_interval / 1e6
                flow.goodput_probe.record(self.sim.now, rate)

        PeriodicTimer(self.sim, self.meter_interval, sample).start()

    def run(self, until: float) -> None:
        self.start_meters()
        self.sim.run(until=until)
