"""IP routers: output-queued forwarding with pluggable queue policies.

The router mirrors the ATM switch: data packets follow the flow's forward
route, ACKs and Source Quench messages the backward route.  Contention
lives in :class:`PacketPort` (one per directed trunk), whose
:class:`QueuePolicy` decides — per arriving data packet — whether to
enqueue, drop, mark, or quench.  Drop-tail lives here; RED and the
paper's Phantom mechanisms are in :mod:`repro.tcp.red` and
:mod:`repro.tcp.phantom_router`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable

from repro.sim import Simulator, StepProbe
from repro.tcp.link import PacketSink
from repro.tcp.segment import HEADER_BYTES, Segment


class QueuePolicy:
    """Decides the fate of arriving packets at one port.

    The base class is an unbounded FIFO (every packet accepted) — useful
    for tests.  Subclasses override :meth:`accepts`; they may also mutate
    the segment (EFCI marking) or ask the port to send a message toward
    the source (Source Quench) before returning.
    """

    name = "unbounded"

    def __init__(self) -> None:
        self.sim: Simulator | None = None
        self.port: "PacketPort | None" = None

    def attach(self, sim: Simulator, port: "PacketPort") -> None:
        self.sim = sim
        self.port = port
        self.on_attach()

    def on_attach(self) -> None:
        """Start timers / initialise state (sim and port are bound)."""

    def accepts(self, segment: Segment) -> bool:
        """True to enqueue ``segment``, False to drop it."""
        return True

    def on_departure(self, segment: Segment) -> None:
        """A packet left the port onto the wire."""

    def state_vars(self) -> dict[str, float]:
        """Mutable scalar state, for constant-space assertions."""
        return {}


class DropTail(QueuePolicy):
    """Plain bounded FIFO — the paper's unmodified router."""

    name = "drop-tail"

    def __init__(self, buffer_packets: int):
        if buffer_packets < 1:
            raise ValueError(
                f"buffer_packets must be >= 1, got {buffer_packets!r}")
        super().__init__()
        self.buffer_packets = buffer_packets

    def on_attach(self) -> None:
        # alias the port's queue so the per-packet check skips the
        # queue_len property descriptor
        self._queue = self.port._queue

    def accepts(self, segment: Segment) -> bool:
        return len(self._queue) < self.buffer_packets


class PacketPort(PacketSink):
    """Output port of a router: policy + FIFO + line-rate transmitter."""

    def __init__(self, sim: Simulator, name: str, rate_mbps: float,
                 sink: PacketSink, policy: QueuePolicy | None = None,
                 propagation: float = 0.0):
        if rate_mbps <= 0:
            raise ValueError(f"rate must be positive, got {rate_mbps!r}")
        self.sim = sim
        self.name = name
        self.rate_mbps = rate_mbps
        self.sink = sink
        self.propagation = propagation
        self.policy = policy or QueuePolicy()
        self.router: "Router | None" = None

        self._queue: deque[Segment] = deque()
        self._sink_receive = sink.receive
        self._busy = False
        # one bound method for the transmitter's life, instead of one
        # allocation per scheduled departure
        self._tx_cb = self._transmitted
        # denominator precomputed; size * 8 / _rate_bps performs the
        # same float operations as size * 8 / (rate_mbps * 1e6)
        self._rate_bps = rate_mbps * 1e6
        # calendar-queue aliases for the inlined event pushes (see
        # Simulator.schedule_fast_at for the entry-layout contract)
        self._sim_heap = sim._heap
        self._sim_seq = sim._seq
        # downstream routers/links expose receive_at, which lets a
        # departure hand the packet over without an intermediate
        # propagation event (see Router.receive_at).  Guarded against
        # lossy sinks for symmetry with OutputPort — no packet sink is
        # lossy today, but composition must never bypass loss injection.
        self._deliver_at = (None if getattr(sink, "loss_rate", 0.0)
                            else getattr(sink, "receive_at", None))

        #: Queue length in packets — the paper's router figures.
        self.queue_probe = StepProbe(f"{name}.queue")
        # raw probe storage for the hand-inlined record on the per-packet
        # paths (the arrays mutate in place, so the aliases stay valid)
        self._qp_times = self.queue_probe.times
        self._qp_vals = self.queue_probe.values
        # attach after the queue exists: policies may alias port state
        # (DropTail grabs _queue) or start timers in on_attach
        self.policy.attach(sim, self)
        self._accepts = self.policy.accepts
        # None when the policy never overrode the hook, so the departure
        # path skips a guaranteed no-op call
        self._policy_on_departure = (
            self.policy.on_departure
            if type(self.policy).on_departure
            is not QueuePolicy.on_departure else None)
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        self.drops_by_flow: dict[str, int] = {}
        #: Time the port last went idle (RED's idle-decay needs it).
        self.idle_since: float | None = 0.0
        # trace hook, pre-gated on the "router" category so the
        # per-packet path pays one is-None check
        tracer = sim.tracer
        self._tracer = (tracer.gate("router") if tracer is not None
                        else None)

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def mean_packet_time(self, bytes_: int = 552) -> float:
        """Transmission time of a typical packet (RED's idle unit)."""
        return bytes_ * 8 / (self.rate_mbps * 1e6)

    def receive(self, segment: Segment) -> None:
        self.arrivals += 1
        if not self._accepts(segment):
            self.drops += 1
            self.drops_by_flow[segment.flow] = (
                self.drops_by_flow.get(segment.flow, 0) + 1)
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.sim.now, "router.drop", self.name,
                            flow=segment.flow, policy=self.policy.name,
                            qlen=len(self._queue), drops=self.drops)
            return
        queue = self._queue
        queue.append(segment)
        qlen = len(queue)
        # StepProbe.record hand-inlined (dedup equal values, coalesce
        # equal timestamps; time is monotonic here, so no backwards
        # guard) — one probe update per packet event makes the call
        # overhead itself a measurable cost
        now = self.sim.now
        vals = self._qp_vals
        if not vals or vals[-1] != qlen:
            times = self._qp_times
            if times and times[-1] == now:
                vals[-1] = qlen
            else:
                times.append(now)
                vals.append(qlen)
        if not self._busy:
            self._busy = True
            self.idle_since = None
            heappush(self._sim_heap,
                     (self.sim.now
                      + (segment.payload + HEADER_BYTES) * 8 / self._rate_bps,
                      next(self._sim_seq), None, self._tx_cb, ()))

    def _transmitted(self) -> None:
        # Drains back-to-back packet trains in one callback; each hop to
        # the next departure goes through advance_inline, which refuses
        # whenever any other event is due first, so the executed schedule
        # matches the one-event-per-packet kernel exactly.
        # Attributes are read at point of use, not hoisted ahead of the
        # loop: at a contended port arrivals interleave between
        # departures, so the common case is exactly one iteration and
        # hoisting costs more than it saves.
        sim = self.sim
        queue = self._queue
        while True:
            segment = queue.popleft()
            qlen = len(queue)
            # StepProbe.record hand-inlined (see receive)
            now = sim.now
            vals = self._qp_vals
            if not vals or vals[-1] != qlen:
                times = self._qp_times
                if times and times[-1] == now:
                    vals[-1] = qlen
                else:
                    times.append(now)
                    vals.append(qlen)
            self.departures += 1
            on_departure = self._policy_on_departure
            if on_departure is not None:
                on_departure(segment)
            prop = self.propagation
            if prop > 0:
                deliver_at = self._deliver_at
                if deliver_at is not None:
                    deliver_at(segment, now + prop)
                else:
                    heappush(self._sim_heap,
                             (now + prop, next(self._sim_seq), None,
                              self._sink_receive, (segment,)))
            else:
                self._sink_receive(segment)
            if queue:
                head = queue[0]
                at = now + (head.payload + HEADER_BYTES) * 8 / self._rate_bps
                # advance_inline refuses whenever the heap head is due
                # first, so only a clear head is worth the call
                heap = self._sim_heap
                if (not heap or heap[0][0] > at) \
                        and sim.advance_inline(at):
                    continue
                heappush(heap,
                         (at, next(self._sim_seq), None, self._tx_cb, ()))
            else:
                self._busy = False
                self.idle_since = now
            return

    def send_toward_source(self, flow: str, segment: Segment) -> None:
        """Policy hook: inject ``segment`` on the flow's backward path
        (Source Quench messages)."""
        if self.router is None:
            raise RuntimeError(f"port {self.name} is not owned by a router")
        self.router.backward(flow).receive(segment)


class RouterError(KeyError):
    """A packet arrived for a flow the router has no route for."""


class Router(PacketSink):
    """A named router with per-flow forward/backward routes."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._forward: dict[str, PacketSink] = {}
        self._backward: dict[str, PacketSink] = {}
        # per-flow dispatch caches: the next hop's bound receive method,
        # and its receive_at when it has one (routes are write-once, so
        # these can never go stale)
        self._forward_recv: dict[str, Callable] = {}
        self._backward_recv: dict[str, Callable] = {}
        self._forward_at: dict[str, Callable | None] = {}
        self._backward_at: dict[str, Callable | None] = {}

    def connect_flow(self, flow: str, forward: PacketSink,
                     backward: PacketSink) -> None:
        if flow in self._forward:
            raise ValueError(
                f"router {self.name}: flow {flow!r} already routed")
        self._forward[flow] = forward
        self._backward[flow] = backward
        self._forward_recv[flow] = forward.receive
        self._backward_recv[flow] = backward.receive
        self._forward_at[flow] = getattr(forward, "receive_at", None)
        self._backward_at[flow] = getattr(backward, "receive_at", None)
        if isinstance(forward, PacketPort):
            forward.router = self

    def forward_receiver(self, flow: str) -> Callable:
        """The bound ``receive`` that data of ``flow`` dispatches to —
        for wiring-time pre-resolution of single-flow access links (see
        :meth:`repro.tcp.link.PacketLink.bind_direct`)."""
        return self._forward_recv[flow]

    def backward_receiver(self, flow: str) -> Callable:
        """Backward twin of :meth:`forward_receiver` (pure-ACK links)."""
        return self._backward_recv[flow]

    def backward(self, flow: str) -> PacketSink:
        try:
            return self._backward[flow]
        except KeyError:
            raise RouterError(
                f"router {self.name}: no backward route for "
                f"flow {flow!r}") from None

    def receive(self, segment: Segment) -> None:
        table = (self._forward_recv
                 if segment.payload > 0 and not segment.is_quench
                 else self._backward_recv)
        try:
            recv = table[segment.flow]
        except KeyError:
            raise RouterError(
                f"router {self.name}: no route for flow "
                f"{segment.flow!r}") from None
        recv(segment)

    def receive_at(self, segment: Segment, arrival: float) -> None:
        """Process an arrival known to happen at the future ``arrival``.

        Called by an upstream port at departure time in place of
        scheduling an arrival event.  Routing is zero-latency and the
        tables are write-once, so when the next hop is a lossless link
        the packet goes straight to the link's future-arrival path — one
        event fewer per packet, with the delivery landing on the
        identical instant.  Next hops without ``receive_at`` (ports,
        whose queue state must be read at arrival time) and unrouted
        flows fall back to a real arrival event, which reproduces the
        unoptimised schedule exactly.
        """
        table = (self._forward_at
                 if segment.payload > 0 and not segment.is_quench
                 else self._backward_at)
        forward_at = table.get(segment.flow)
        if forward_at is not None:
            forward_at(segment, arrival)
            return
        self.sim.schedule_fast_at(arrival, self.receive, (segment,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Router {self.name} flows={sorted(self._forward)}>"
