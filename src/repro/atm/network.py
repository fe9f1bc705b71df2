"""Declarative ATM network construction.

:class:`AtmNetwork` assembles switches, trunk ports, access links, and ABR
end systems into the configurations the paper simulates, with one switch
algorithm instance per trunk output port.  It also plants the measurement
instruments every experiment needs: per-session ACR and goodput series,
and per-port queue series.

Example — two sessions across one 150 Mb/s bottleneck::

    net = AtmNetwork(algorithm_factory=PhantomAlgorithm)
    s1, s2 = net.add_switch("S1"), net.add_switch("S2")
    net.connect(s1, s2)
    net.add_session("A", route=["S1", "S2"])
    net.add_session("B", route=["S1", "S2"], start=0.030)
    net.run(until=0.200)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.atm.background import BackgroundSink, CbrSource, VbrSource
from repro.atm.endsystem import AbrDestination, AbrSource
from repro.atm.link import CellSink, Link
from repro.atm.params import AbrParams, PAPER_PARAMS
from repro.atm.port import OutputPort, PortAlgorithm
from repro.atm.switch import AtmSwitch
from repro.sim import PeriodicTimer, Probe, RngStreams, Simulator, units

#: Paper default: "negligible RTT" links of 0.01 ms.
DEFAULT_PROP_DELAY = 1e-5


class _NoBackwardPath:
    """Sentinel backward route for background VCs (they have no RM loop)."""

    def __init__(self, vc: str):
        self.vc = vc

    def receive(self, cell) -> None:
        raise RuntimeError(
            f"background vc {self.vc} unexpectedly produced a backward cell")


@dataclass
class Session:
    """Handle bundling one ABR session's components and instruments."""

    vc: str
    source: AbrSource
    destination: AbrDestination
    route: list[str]
    #: Goodput measured at the destination (Mb/s), sampled periodically.
    rate_probe: Probe = field(default_factory=Probe)

    @property
    def acr_probe(self) -> Probe:
        return self.source.acr_probe


class AtmNetwork:
    """Builder/owner of a simulated ATM network."""

    def __init__(self,
                 algorithm_factory: Callable[[], PortAlgorithm] | None = None,
                 link_rate: float = 150.0,
                 trunk_delay: float = DEFAULT_PROP_DELAY,
                 access_delay: float = DEFAULT_PROP_DELAY,
                 buffer_cells: int | None = None,
                 meter_interval: float = 1e-3,
                 sim: Simulator | None = None,
                 seed: int = 0,
                 tracer=None):
        self.sim = sim or Simulator()
        # install before any component is built: ports/switches/
        # algorithms capture their gated tracer at construction
        if tracer is not None:
            self.sim.tracer = tracer
        #: Named random streams for stochastic traffic (VBR etc.), so each
        #: stream's sample path is independent of creation order.
        self.rng = RngStreams(seed)
        self.algorithm_factory = algorithm_factory or PortAlgorithm
        self.link_rate = link_rate
        self.trunk_delay = trunk_delay
        self.access_delay = access_delay
        self.buffer_cells = buffer_cells
        self.meter_interval = meter_interval

        self.switches: dict[str, AtmSwitch] = {}
        self.sessions: dict[str, Session] = {}
        self.background: dict[str, tuple[CbrSource, BackgroundSink]] = {}
        self._trunks: dict[tuple[str, str], OutputPort] = {}
        self._meters_started = False

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_switch(self, name: str) -> AtmSwitch:
        if name in self.switches:
            raise ValueError(f"switch {name!r} already exists")
        switch = AtmSwitch(self.sim, name)
        self.switches[name] = switch
        return switch

    def _switch(self, ref: "AtmSwitch | str") -> AtmSwitch:
        if isinstance(ref, AtmSwitch):
            return ref
        return self.switches[ref]

    def connect(self, a: "AtmSwitch | str", b: "AtmSwitch | str",
                rate: float | None = None, delay: float | None = None,
                buffer_cells: int | None = None) -> None:
        """Create the two directed trunk ports between switches a and b."""
        a, b = self._switch(a), self._switch(b)
        for src, dst in ((a, b), (b, a)):
            key = (src.name, dst.name)
            if key in self._trunks:
                raise ValueError(f"trunk {key} already exists")
            self._trunks[key] = OutputPort(
                self.sim, name=f"{src.name}->{dst.name}",
                rate_mbps=rate if rate is not None else self.link_rate,
                sink=dst,
                algorithm=self.algorithm_factory(),
                buffer_cells=(buffer_cells if buffer_cells is not None
                              else self.buffer_cells),
                propagation=delay if delay is not None else self.trunk_delay)

    def trunk(self, a: "AtmSwitch | str", b: "AtmSwitch | str") -> OutputPort:
        """The directed output port carrying traffic from a to b."""
        a, b = self._switch(a), self._switch(b)
        return self._trunks[(a.name, b.name)]

    @property
    def trunks(self) -> dict[tuple[str, str], OutputPort]:
        return dict(self._trunks)

    def capacities(self) -> dict[str, float]:
        """Trunk capacities in Mb/s keyed by port name (``"S1->S2"``) —
        the link set in :func:`repro.core.fairness.max_min_allocation`
        form, for the oracle/health layer."""
        return {port.name: port.rate_mbps
                for port in self._trunks.values()}

    def routes(self) -> dict[str, list[str]]:
        """Each ABR session's forward path as the trunk-port names it
        crosses (sessions on a single switch cross no trunk and map to
        an empty list).  Matches :meth:`capacities`' keys, so the pair
        feeds :func:`repro.core.fairness.max_min_allocation` directly."""
        return {vc: [f"{a}->{b}"
                     for a, b in zip(session.route, session.route[1:])]
                for vc, session in self.sessions.items()}

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def add_session(self, vc: str, route: list["AtmSwitch | str"],
                    start: float = 0.0,
                    params: AbrParams = PAPER_PARAMS,
                    access_delay: float | None = None,
                    efci_to_ci: bool = True) -> Session:
        """Create an ABR session whose data path crosses ``route``.

        ``route`` is the ordered list of switches; the source hangs off
        the first, the destination off the last.  Access links run at the
        network link rate and contribute ``access_delay`` propagation in
        each direction (vary it to model sessions with different RTTs).
        """
        if vc in self.sessions:
            raise ValueError(f"session {vc!r} already exists")
        if not route:
            raise ValueError("route must name at least one switch")
        hops = [self._switch(r) for r in route]
        delay = access_delay if access_delay is not None else self.access_delay

        source = AbrSource(self.sim, vc, params=params, start_time=start)
        destination = AbrDestination(self.sim, vc, efci_to_ci=efci_to_ci)

        # access links (both directions at each edge)
        in_link = Link(
            self.sim, self.link_rate, delay, hops[0], name=f"{vc}.in")
        source.attach_link(in_link)
        to_source = Link(
            self.sim, self.link_rate, delay, source, name=f"{vc}.back")
        to_dest = Link(
            self.sim, self.link_rate, delay, destination, name=f"{vc}.out")
        destination.attach_reverse(Link(
            self.sim, self.link_rate, delay, hops[-1], name=f"{vc}.rev"))

        for i, switch in enumerate(hops):
            forward = (self.trunk(switch, hops[i + 1])
                       if i + 1 < len(hops) else to_dest)
            backward = (self.trunk(switch, hops[i - 1])
                        if i > 0 else to_source)
            switch.connect_session(vc, forward=forward, backward=backward)

        # the in-link only ever carries this session's forward cells, so
        # its deliveries can skip the first switch's dispatch
        in_link.bind_direct(hops[0].forward_receiver(vc))

        session = Session(
            vc=vc, source=source, destination=destination,
            route=[h.name for h in hops],
            rate_probe=Probe(f"{vc}.rate"))
        self.sessions[vc] = session
        source.start()
        return session

    # ------------------------------------------------------------------
    # guaranteed-service background traffic
    # ------------------------------------------------------------------
    def _wire_background(self, vc: str, route: list["AtmSwitch | str"],
                         source: CbrSource) -> BackgroundSink:
        if vc in self.sessions or vc in self.background:
            raise ValueError(f"traffic {vc!r} already exists")
        if not route:
            raise ValueError("route must name at least one switch")
        hops = [self._switch(r) for r in route]
        sink = BackgroundSink(vc)
        in_link = Link(
            self.sim, self.link_rate, self.access_delay, hops[0],
            name=f"{vc}.in")
        source.attach_link(in_link)
        to_sink = Link(self.sim, self.link_rate, self.access_delay, sink,
                       name=f"{vc}.out")
        dead_end = _NoBackwardPath(vc)
        for i, switch in enumerate(hops):
            forward: CellSink = (self.trunk(switch, hops[i + 1])
                                 if i + 1 < len(hops) else to_sink)
            switch.connect_session(vc, forward=forward, backward=dead_end)
        in_link.bind_direct(hops[0].forward_receiver(vc))
        self.background[vc] = (source, sink)
        source.start()
        return sink

    def add_cbr(self, vc: str, route: list["AtmSwitch | str"],
                rate_mbps: float, start: float = 0.0,
                stop: float | None = None) -> BackgroundSink:
        """Add a constant-rate guaranteed (priority-0) stream."""
        source = CbrSource(self.sim, vc, rate_mbps, start=start, stop=stop)
        return self._wire_background(vc, route, source)

    def add_vbr(self, vc: str, route: list["AtmSwitch | str"],
                peak_mbps: float, mean_on: float, mean_off: float,
                seed: int = 0, start: float = 0.0,
                stop: float | None = None) -> BackgroundSink:
        """Add an on/off guaranteed (priority-0) stream.

        The on/off process draws from the network's :class:`RngStreams`
        under a name derived from ``vc`` and ``seed``, so every VBR
        stream is reproducible and independent of creation order.
        """
        source = VbrSource(self.sim, vc, peak_mbps, mean_on, mean_off,
                           rng=self.rng.stream(f"vbr.{vc}.{seed}"),
                           start=start, stop=stop)
        return self._wire_background(vc, route, source)

    # ------------------------------------------------------------------
    # measurement and execution
    # ------------------------------------------------------------------
    def start_meters(self) -> None:
        """Arm the per-session goodput meters, once.  :meth:`run` does
        it; call it first when driving :attr:`sim` directly."""
        if self._meters_started:
            return
        self._meters_started = True
        counts: dict[str, int] = {}

        def sample(_timer: PeriodicTimer) -> None:
            for vc, session in self.sessions.items():
                delta = session.destination.data_received - counts.get(vc, 0)
                counts[vc] = session.destination.data_received
                rate = units.cells_per_sec_to_mbps(
                    delta / self.meter_interval)
                session.rate_probe.record(self.sim.now, rate)

        PeriodicTimer(self.sim, self.meter_interval, sample).start()

    def run(self, until: float) -> None:
        """Run the simulation up to ``until`` seconds."""
        self.start_meters()
        self.sim.run(until=until)
