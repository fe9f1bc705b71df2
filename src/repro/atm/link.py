"""Point-to-point cell links.

A :class:`Link` models serialization at the line rate plus a fixed
propagation delay.  Cells handed to :meth:`Link.send` are transmitted one
cell-time apart and delivered to the downstream sink ``propagation``
seconds after their last bit leaves.  An optional random ``loss_rate``
supports failure injection — ATM links do corrupt cells, and the control
loop must survive lost RM cells (the Trm backstop's job).

Anything with a ``receive(cell)`` method can sit at the far end — a switch,
an end system, or a test stub (see :class:`CellSink`).  A
:class:`CountingSink` at the far end lets the link absorb deliveries the
sink only counts (see :meth:`Link.receive_at`).
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from math import inf
from typing import Protocol

from repro.atm.cell import Cell
from repro.sim import Simulator, units


#: Absorbed deliveries a link holds beyond twice those in flight before
#: it retires the fired ones itself (see Link.receive_at).
ABSORB_SLACK = 256


class CellSink(Protocol):
    """Anything that accepts cells."""

    def receive(self, cell: Cell) -> None: ...


class CountingSink(CellSink):
    """A sink on which a non-RM cell of its own VC only bumps counters.

    Inside an unbounded run, a lossless :class:`Link` into one queues
    such deliveries instead of scheduling them (see
    :meth:`Link.receive_at`).  The sink reads nothing at delivery time,
    so each counter reader first calls :meth:`_retire`, which applies
    the deliveries the evented kernel would have executed by now
    through :meth:`count_absorbed`.
    """

    def __init__(self, vc: str):
        self.vc = vc
        #: Links whose deliveries this sink may absorb.
        self._feeds: list[Link] = []

    def _retire(self) -> None:
        for link in self._feeds:
            link.retire_absorbed()

    def count_absorbed(self, n: int, last: Cell) -> None:
        """Apply ``n`` absorbed deliveries, ``last`` the latest of them."""
        raise NotImplementedError


class Link:
    """Serializing link with propagation delay.

    The internal buffer is unbounded: contention buffering belongs to
    switch output ports (:mod:`repro.atm.port`), which *feed* links at the
    line rate, so in a correctly wired network this buffer holds at most
    one cell.  Sources may momentarily burst above the line rate while
    their ACR adjusts; the link then paces them out without loss, which
    matches the paper's end-system model (the access link is never the
    bottleneck under test).
    """

    def __init__(self, sim: Simulator, rate_mbps: float,
                 propagation: float, sink: CellSink, name: str = "",
                 loss_rate: float = 0.0,
                 rng: random.Random | None = None):
        if propagation < 0:
            raise ValueError(f"propagation must be >= 0, got {propagation!r}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1), got {loss_rate!r}")
        self.sim = sim
        self.rate_mbps = rate_mbps
        self.cell_time = units.cell_time(rate_mbps)
        self.propagation = propagation
        self.sink = sink
        self.name = name
        self.loss_rate = loss_rate
        self.rng = rng or random.Random(0)
        # lossless fast path: a departure-time cursor replaces the cell
        # buffer (each cell's delivery is scheduled at send time), and
        # the pending departure stamps back the `queued` property.  The
        # delivery event invokes the sink directly — link bookkeeping
        # (`delivered`, `queued`) is derived lazily from the recorded
        # departure times instead of paying a callback frame per cell.
        self._busy_until = 0.0
        self._pending_deps: deque[float] = deque()
        self._delivered_base = 0
        self._sink_receive = sink.receive
        # calendar-queue aliases: one delivery event is pushed per cell,
        # so the push itself is inlined (see Simulator.schedule_fast_at for
        # the entry-layout contract; both objects are stable for the
        # simulator's life)
        self._sim_heap = sim._heap
        self._sim_seq = sim._seq
        # loss-injection path keeps the per-cell transmit events, so the
        # rng is still drawn once per departure, in departure order
        self._buffer: deque[Cell] = deque()
        self._busy = False
        #: Cells destroyed by injected loss.
        self.lost = 0
        #: Absorbed deliveries, ``(instant, seq, cell)`` in heap order:
        #: each stands for the heap entry ``(instant, seq, None,
        #: sink.receive, (cell,))`` (see :meth:`receive_at`).
        self.absorbed: deque[tuple[float, int, Cell]] = deque()
        #: The VC whose data cells the sink only counts (None: the sink
        #: is not a CountingSink, nothing is absorbed).
        self._absorb_vc: str | None = None
        #: Queue length that makes an absorbing arrival retire first.
        self._absorb_bound = ABSORB_SLACK
        if isinstance(sink, CountingSink):
            self._absorb_vc = sink.vc
            sink._feeds.append(self)
            sim._absorbers.append(self)

    def send(self, cell: Cell) -> None:
        """Accept a cell for transmission."""
        if self.loss_rate:
            self._buffer.append(cell)
            if not self._busy:
                self._busy = True
                # loss injection stays evented on purpose: the rng must
                # be drawn once per departure, in departure order
                self.sim.schedule(
                    self.cell_time, self._transmitted)
            return
        # Lossless: the departure time is fully determined on arrival,
        # so an arrival now is an arrival known at ``now``
        self.receive_at(cell, self.sim.now)

    #: CellSink alias, so links compose with switches and ports.
    receive = send

    def receive_at(self, cell: Cell, arrival: float) -> None:
        """Process an arrival known to happen at a future instant.  An
        upstream port whose departure is separated from this link only by
        a fixed propagation delay calls this at departure time instead of
        scheduling an arrival event — the cursor update and the delivery
        timestamp are computed from ``arrival`` exactly as :meth:`send`
        would compute them from ``now`` when the arrival event fired, so
        the delivery lands on the identical instant with one event fewer
        per cell.  Only valid when this link's arrivals all come from
        that single upstream port (FIFO order preserved).

        With loss injection active the composition shortcut is refused:
        the rng must be drawn per departure on the evented path, so the
        cell is handed to a real arrival event at ``arrival`` — the
        identical event an unoptimised upstream would have scheduled
        (composition sites also guard on ``loss_rate`` themselves; this
        is the backstop that makes bypassing loss impossible).

        A data cell for a :class:`CountingSink` is *absorbed* while an
        unbounded run is active: the delivery draws the sequence number
        its heap entry would have had and waits in :attr:`absorbed`,
        and :meth:`retire_absorbed` counts it once the heap would have
        popped it.
        """
        if self.loss_rate:
            self.sim.schedule_fast_at(arrival, self.send, (cell,))
            return
        # max(cursor, arrival) + cell_time reproduces the per-cell event
        # chain's timestamps exactly, including the tie where an arrival
        # lands on the instant a busy period ends, so serialization and
        # propagation collapse into a single delivery event per cell
        busy_until = self._busy_until
        dep = (busy_until if busy_until > arrival else arrival) \
            + self.cell_time
        self._busy_until = dep
        sim = self.sim
        deps = self._pending_deps
        # retire one already-delivered departure per arrival (bookkeeping
        # only — counters, never event times — so the float compare is
        # exact by construction: both sides were computed here)
        if deps and deps[0] + self.propagation <= sim.now:
            deps.popleft()
            self._delivered_base += 1
        deps.append(dep)
        if (cell.vc == self._absorb_vc and not cell.is_rm
                and sim._inline_ok):
            absorbed = self.absorbed
            absorbed.append(
                (dep + self.propagation, next(self._sim_seq), cell))
            if len(absorbed) > self._absorb_bound:
                # a sink nobody reads mid-run (a background sink) would
                # hold every cell until the run ends: retire what has
                # fired, then allow twice what is still in flight
                self.retire_absorbed()
                self._absorb_bound = 2 * len(absorbed) + ABSORB_SLACK
        else:
            heappush(self._sim_heap,
                     (dep + self.propagation, next(self._sim_seq), None,
                      self._sink_receive, (cell,)))

    def retire_absorbed(self, key: tuple | None = None,
                        requeue: bool = False) -> float:
        """Hand the sink the absorbed deliveries the heap would already
        have popped — ``(instant, seq) < key``, by default ``(now, seq
        of the executing entry)`` — counting each as an executed event.
        With ``requeue`` (a run's exit) the rest go back into the heap as
        the entries they stand for.  Returns the last retired instant,
        ``-inf`` when none was.
        """
        absorbed = self.absorbed
        if not absorbed:
            return -inf
        sim = self.sim
        if key is None:
            key = (sim.now, sim._seq_now)
        latest = -inf
        if absorbed[0] < key:
            n = 0
            while absorbed and absorbed[0] < key:
                last = absorbed.popleft()
                n += 1
            sim._executed += n
            self.sink.count_absorbed(n, last[2])
            latest = last[0]
        if requeue:
            heap = self._sim_heap
            receive = self._sink_receive
            for instant, seq, cell in absorbed:
                heappush(heap, (instant, seq, None, receive, (cell,)))
            absorbed.clear()
        return latest

    def _transmitted(self) -> None:
        cell = self._buffer.popleft()
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.lost += 1
        else:
            self.sim.schedule(self.propagation, self._deliver, cell)
        if self._buffer:
            # evented on purpose — see send()'s loss branch
            self.sim.schedule(
                self.cell_time, self._transmitted)
        else:
            self._busy = False

    def bind_direct(self, receive) -> None:
        """Deliver straight to ``receive``, skipping the sink's dispatch.

        Wiring aid for network builders: when every cell this link will
        ever carry makes the sink's ``receive`` resolve to the same
        bound method (a single-VC access link into a switch whose
        write-once routing always picks the same next hop), the dispatch
        frame can be pre-resolved at wiring time.  The delivery event,
        its timestamp, and the delivery bookkeeping are unchanged — only
        the intra-event call chain shortens.  Deliveries to a bypassed
        counting sink are no longer absorbed.
        """
        self._sink_receive = receive
        self._absorb_vc = None

    def _deliver(self, cell: Cell) -> None:
        # loss-injection path only; the lossless path schedules the sink
        # callback directly and derives `delivered` from departure times
        self._delivered_base += 1
        self._sink_receive(cell)

    def _retire_delivered(self) -> None:
        """Retire departures whose delivery instant has passed.

        Bookkeeping only (the delivery events themselves are already
        scheduled); the comparison reproduces the exact delivery
        timestamp float, so a departure is retired iff its delivery
        event fires at or before the current instant.
        """
        deps = self._pending_deps
        prop = self.propagation
        now = self.sim.now
        while deps and deps[0] + prop <= now:
            deps.popleft()
            self._delivered_base += 1

    @property
    def delivered(self) -> int:
        """Total cells handed to the sink (observability)."""
        self._retire_delivered()
        return self._delivered_base

    @property
    def queued(self) -> int:
        """Cells awaiting transmission (should stay tiny; see class doc)."""
        self._retire_delivered()
        now = self.sim.now
        return (len(self._buffer)
                + sum(1 for dep in self._pending_deps if dep > now))
