"""Output-queued ATM switch.

The switch routes cells by virtual-connection identifier:

* forward cells (data and forward RM) go to the session's forward output
  port, where they queue and may congest;
* backward RM cells are first shown to the algorithm of the session's
  *forward* output port — that is where ER/CI marking happens, per the
  rate-based framework the ATM Forum adopted [Sat96] — and then forwarded
  toward the source on the reverse path.

Switching latency is zero; all delay and contention live in output ports
and links, the standard output-queued abstraction.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from repro.atm.cell import Cell, RMDirection
from repro.atm.link import CellSink, Link
from repro.atm.port import OutputPort
from repro.sim import Simulator


class RoutingError(KeyError):
    """A cell arrived for a VC the switch has no route for."""


class AtmSwitch(CellSink):
    """A named switch with per-VC forward/backward routes."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: Forward next hop per VC (an OutputPort, Link, or end system).
        self._forward: dict[str, CellSink] = {}
        #: Backward next hop per VC (toward the source).
        self._backward: dict[str, CellSink] = {}
        #: The forward OutputPort whose algorithm controls each VC, if any.
        self._control: dict[str, OutputPort] = {}
        #: Per-VC forward hop for :meth:`receive_at`: ``(link, None)``
        #: when it is a :class:`Link` (a lossy one schedules its own
        #: arrival event), else ``(None, receive)``.  Routes are
        #: write-once (``connect_session`` rejects re-routing), so the
        #: cache can never go stale.
        self._forward_at: dict[str, tuple[Link | None,
                                          Callable | None]] = {}
        # per-VC dispatch caches (bound methods), same write-once
        # argument: skip the attribute lookups on the per-cell path
        self._forward_recv: dict[str, Callable] = {}
        self._backward_recv: dict[str, Callable] = {}
        self._mark: dict[str, Callable | None] = {}
        # trace hook, pre-gated on the "switch" category
        tracer = sim.tracer
        self._tracer = (tracer.gate("switch") if tracer is not None
                        else None)
        # calendar-queue aliases for the inlined arrival push (see
        # Simulator.schedule_fast_at for the entry-layout contract)
        self._sim_heap = sim._heap
        self._sim_seq = sim._seq

    def connect_session(self, vc: str, forward: CellSink,
                        backward: CellSink) -> None:
        """Install the two per-VC routes.

        When ``forward`` is an :class:`OutputPort` its algorithm becomes
        the VC's controller at this switch (backward RM cells are marked
        by it).  A plain link as ``forward`` means this hop never
        congests (e.g. the destination access link) and does no marking.
        """
        if vc in self._forward:
            raise ValueError(f"switch {self.name}: vc {vc!r} already routed")
        self._forward[vc] = forward
        self._backward[vc] = backward
        self._forward_recv[vc] = forward.receive
        self._backward_recv[vc] = backward.receive
        self._forward_at[vc] = ((forward, None) if isinstance(forward, Link)
                                else (None, forward.receive))
        if isinstance(forward, OutputPort):
            self._control[vc] = forward
            self._mark[vc] = forward.algorithm.on_backward_rm
        else:
            self._mark[vc] = None

    def forward_receiver(self, vc: str) -> Callable:
        """The bound ``receive`` that forward cells of ``vc`` dispatch
        to — for wiring-time pre-resolution of single-VC access links
        (see :meth:`repro.atm.link.Link.bind_direct`)."""
        return self._forward_recv[vc]

    def receive(self, cell: Cell) -> None:
        if cell.is_rm and cell.direction is RMDirection.BACKWARD:
            try:
                backward_recv = self._backward_recv[cell.vc]
            except KeyError:
                raise RoutingError(
                    f"switch {self.name}: no backward route for "
                    f"vc {cell.vc!r}") from None
            mark = self._mark[cell.vc]
            if mark is not None:
                tracer = self._tracer
                if tracer is not None:
                    er_in = cell.er
                    mark(cell)
                    tracer.emit(self.sim.now, "switch.mark", self.name,
                                vc=cell.vc, er_in=er_in, er_out=cell.er)
                else:
                    mark(cell)
            backward_recv(cell)
            return
        try:
            forward_recv = self._forward_recv[cell.vc]
        except KeyError:
            raise RoutingError(
                f"switch {self.name}: no forward route for "
                f"vc {cell.vc!r}") from None
        forward_recv(cell)

    def receive_at(self, cell: Cell, arrival: float) -> None:
        """Process an arrival known to happen at the future ``arrival``.

        Called by an upstream port at departure time in place of
        scheduling an arrival event.  Switching is zero-latency and the
        routing tables are write-once, so a *forward* cell whose next hop
        is a link can be pushed straight through to the link's own
        future-arrival path — one event fewer per cell, with the
        delivery landing on the identical instant — and one whose next
        hop queues (an output port) gets its arrival event scheduled on
        that hop's ``receive``, which is where this switch's dispatch
        would send it.  Backward RM cells, whose marking must read the
        port algorithm's state at arrival time, and unknown VCs get a
        real arrival event here, which reproduces the unoptimised
        schedule exactly.
        """
        if not (cell.is_rm and cell.direction is RMDirection.BACKWARD):
            hop = self._forward_at.get(cell.vc)
            if hop is not None:
                link, receive = hop
                if link is not None:
                    link.receive_at(cell, arrival)
                else:
                    heappush(self._sim_heap,
                             (arrival, next(self._sim_seq), None, receive,
                              (cell,)))
                return
        self.sim.schedule_fast_at(arrival, self.receive, (cell,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AtmSwitch {self.name} vcs={sorted(self._forward)}>"
