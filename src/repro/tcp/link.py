"""Packet links: variable-size serialization plus propagation delay.

The packet twin of :class:`repro.atm.link.Link`; transmission time is
``size * 8 / rate`` per packet.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Protocol

from repro.sim import Simulator
from repro.tcp.segment import HEADER_BYTES, Segment


class PacketSink(Protocol):
    """Anything that accepts packets."""

    def receive(self, segment: Segment) -> None: ...


class PacketLink:
    """Serializing, lossless link (access links; never the bottleneck)."""

    def __init__(self, sim: Simulator, rate_mbps: float,
                 propagation: float, sink: PacketSink, name: str = ""):
        if rate_mbps <= 0:
            raise ValueError(f"rate must be positive, got {rate_mbps!r}")
        if propagation < 0:
            raise ValueError(
                f"propagation must be >= 0, got {propagation!r}")
        self.sim = sim
        self.rate_mbps = rate_mbps
        self.propagation = propagation
        self.sink = sink
        self.name = name
        # departure-time cursor; the link is lossless, so each packet's
        # delivery is one event scheduled at send time, invoking the
        # sink directly (see repro.atm.link.Link for the ATM twin, the
        # tie argument, and the lazy `delivered`/`queued` bookkeeping)
        self._busy_until = 0.0
        self._pending_deps: deque[float] = deque()
        self._delivered_base = 0
        self._sink_receive = sink.receive
        # calendar-queue aliases: one delivery event is pushed per
        # packet, so the push itself is inlined (see
        # Simulator.schedule_fast_at for the entry-layout contract)
        self._sim_heap = sim._heap
        self._sim_seq = sim._seq
        # denominator precomputed; size * 8 / _rate_bps performs the
        # same float operations as size * 8 / (rate_mbps * 1e6)
        self._rate_bps = rate_mbps * 1e6

    def send(self, segment: Segment) -> None:
        busy_until = self._busy_until
        now = self.sim.now
        dep = ((busy_until if busy_until > now else now)
               + (segment.payload + HEADER_BYTES) * 8 / self._rate_bps)
        self._busy_until = dep
        deps = self._pending_deps
        # retire one already-delivered departure per send (bookkeeping
        # only; the compare reproduces the delivery timestamp exactly)
        if deps and deps[0] + self.propagation <= now:
            deps.popleft()
            self._delivered_base += 1
        deps.append(dep)
        heappush(self._sim_heap,
                 (dep + self.propagation, next(self._sim_seq), None,
                  self._sink_receive, (segment,)))

    #: PacketSink alias so links compose with routers and hosts.
    receive = send

    def receive_at(self, segment: Segment, arrival: float) -> None:
        """Process an arrival known to happen at the future ``arrival``.

        An upstream port whose departure is separated from this link only
        by a fixed propagation delay calls this at departure time instead
        of scheduling an arrival event — the cursor update and the
        delivery timestamp are computed from ``arrival`` exactly as
        :meth:`send` would compute them when the arrival event fired, so
        the delivery lands on the identical instant with one event fewer
        per packet.  Only valid when all of this link's traffic comes
        from that single upstream port (FIFO order preserved).
        """
        busy_until = self._busy_until
        dep = ((busy_until if busy_until > arrival else arrival)
               + (segment.payload + HEADER_BYTES) * 8 / self._rate_bps)
        self._busy_until = dep
        deps = self._pending_deps
        if deps and deps[0] + self.propagation <= self.sim.now:
            deps.popleft()
            self._delivered_base += 1
        deps.append(dep)
        heappush(self._sim_heap,
                 (dep + self.propagation, next(self._sim_seq), None,
                  self._sink_receive, (segment,)))

    def bind_direct(self, receive) -> None:
        """Deliver straight to ``receive``, skipping the sink's dispatch
        (see :meth:`repro.atm.link.Link.bind_direct`; same contract)."""
        self._sink_receive = receive

    def _retire_delivered(self) -> None:
        """Retire departures whose delivery instant has passed (see
        :meth:`repro.atm.link.Link._retire_delivered`)."""
        deps = self._pending_deps
        prop = self.propagation
        now = self.sim.now
        while deps and deps[0] + prop <= now:
            deps.popleft()
            self._delivered_base += 1

    @property
    def delivered(self) -> int:
        """Total packets handed to the sink (observability)."""
        self._retire_delivered()
        return self._delivered_base

    @property
    def queued(self) -> int:
        """Packets not yet on the wire (their departure lies ahead)."""
        self._retire_delivered()
        now = self.sim.now
        return sum(1 for dep in self._pending_deps if dep > now)
