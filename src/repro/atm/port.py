"""Switch output ports and the algorithm plug-in interface.

An output port owns the only contention queue in the switch model
(output-queued switch, the standard abstraction in the ATM Forum
simulation studies the paper compares against).  Each port carries one
:class:`PortAlgorithm` instance — Phantom, EPRCA, APRC, CAPC, or the no-op
FIFO — which observes cell arrivals/departures and gets to stamp backward
RM cells of the sessions whose forward path crosses the port.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, deque
from heapq import heappush

from repro.atm.cell import Cell, RMCell, RMDirection
from repro.atm.link import CellSink
from repro.sim import Simulator, StepProbe, units


class PortAlgorithm:
    """Base class for per-port rate-control algorithms.

    Subclasses override the ``on_*`` hooks.  All hooks are optional; the
    base class implements the no-op (plain FIFO) behaviour.

    The constant-space claim of the paper is checkable: every algorithm
    reports its state through :meth:`state_vars`, and the test suite
    asserts the size is independent of the number of sessions.
    """

    name = "fifo"

    def __init__(self) -> None:
        self.sim: Simulator | None = None
        self.port: "OutputPort | None" = None

    def attach(self, sim: Simulator, port: "OutputPort") -> None:
        """Bind the algorithm to its port; called once by the port."""
        self.sim = sim
        self.port = port
        self.on_attach()

    # -- hooks ---------------------------------------------------------
    def on_attach(self) -> None:
        """Initialise timers/state; sim and port are available."""

    def on_arrival(self, cell: Cell) -> None:
        """Every cell arriving at the port, before any drop decision."""

    def on_departure(self, cell: Cell) -> None:
        """Every cell leaving the port onto the wire."""

    def on_forward_rm(self, rm: RMCell) -> None:
        """A forward RM cell transiting this port (may be modified)."""

    def on_backward_rm(self, rm: RMCell) -> None:
        """A backward RM cell of a session whose *forward* path uses this
        port.  This is where explicit rates are stamped."""

    # -- introspection ---------------------------------------------------
    def state_vars(self) -> dict[str, float]:
        """The algorithm's mutable scalar state, for constant-space checks."""
        return {}


class OutputPort(CellSink):
    """Priority output port: bounded queues + line-rate transmitter.

    Cells are serialized at ``rate_mbps`` and delivered to ``sink`` after
    ``propagation`` seconds.  Two strict-priority levels are served
    (level 0 = guaranteed CBR/VBR, level 1 = ABR), making the ABR queue
    see exactly the *residual* service the guaranteed traffic leaves —
    the quantity Phantom measures.  The total queue length (in cells) is
    recorded in :attr:`queue_probe`, the ABR level separately in
    :attr:`abr_queue_probe` — the "Queue length" series of the paper's
    figures.  Until the first guaranteed-class cell arrives every queued
    cell is ABR, so the two series are equal and share one pair of
    arrays (see :meth:`_split_series`).
    """

    PRIORITY_LEVELS = 2

    def __init__(self, sim: Simulator, name: str, rate_mbps: float,
                 sink: CellSink, algorithm: PortAlgorithm | None = None,
                 buffer_cells: int | None = None, propagation: float = 0.0):
        if buffer_cells is not None and buffer_cells < 1:
            raise ValueError(f"buffer_cells must be >= 1, got {buffer_cells!r}")
        self.sim = sim
        self.name = name
        self.rate_mbps = rate_mbps
        self.cell_time = units.cell_time(rate_mbps)
        self.sink = sink
        self.buffer_cells = buffer_cells
        self.propagation = propagation
        self.algorithm = algorithm or PortAlgorithm()
        self.algorithm.attach(sim, self)

        self._queues: list[deque[Cell]] = [
            deque() for _ in range(self.PRIORITY_LEVELS)]
        self._abr_queue = self._queues[-1]
        self._sink_receive = sink.receive
        # hot-path constants: an unbounded buffer becomes an unreachable
        # integer limit (qlen can never get there), and the level clamp
        # bound is precomputed
        self._buf_limit = (buffer_cells if buffer_cells is not None
                           else sys.maxsize)
        self._max_level = self.PRIORITY_LEVELS - 1
        self._busy = False
        #: Queue holding the cell currently being serialized; priorities
        #: are non-preemptive, so the choice is fixed at service start.
        self._serving: deque[Cell] | None = None
        # occupancy counters mirror the deques so the per-cell paths
        # never pay an O(levels) sum; the ABR one is kept from the first
        # guaranteed-class arrival on (before it, it equals _qlen)
        self._qlen = 0
        self._abr_qlen = 0
        #: True from the first guaranteed-class arrival on.
        self._mixed = False
        # bound methods captured once, instead of one allocation per
        # scheduled departure / per-cell hook dispatch
        self._tx_cb = self._transmitted
        self._alg_on_forward_rm = self.algorithm.on_forward_rm
        # None when the algorithm never overrode a hook, so the per-cell
        # paths skip guaranteed no-op calls (plain FIFO ports pay
        # nothing for the algorithm interface)
        alg_cls = type(self.algorithm)
        self._alg_on_arrival = (
            self.algorithm.on_arrival
            if alg_cls.on_arrival is not PortAlgorithm.on_arrival
            else None)
        self._alg_on_departure = (
            self.algorithm.on_departure
            if alg_cls.on_departure is not PortAlgorithm.on_departure
            else None)
        # calendar-queue aliases for the inlined event pushes (see
        # Simulator.schedule_fast_at for the entry-layout contract)
        self._sim_heap = sim._heap
        self._sim_seq = sim._seq
        # trace hook, captured pre-gated (None unless a tracer is
        # installed AND the "port" category is on), so the per-cell
        # paths pay one is-None check — same discipline as the
        # algorithm hooks above
        tracer = sim.tracer
        self._tracer = (tracer.gate("port") if tracer is not None
                        else None)
        # downstream switches/links expose receive_at, which lets a
        # departure hand the cell over without an intermediate
        # propagation event (see AtmSwitch.receive_at).  A lossy sink
        # must keep real arrival events — its rng draw happens on the
        # evented path — so it never composes (same guard as
        # AtmSwitch.receive_at and AbrSource.attach_link).
        self._deliver_at = (None if getattr(sink, "loss_rate", 0.0)
                            else getattr(sink, "receive_at", None))

        self.queue_probe = StepProbe(f"{name}.queue")
        self.abr_queue_probe = StepProbe(f"{name}.abr_queue")
        # one series while the port is single-class (see _split_series)
        self.abr_queue_probe.times = self.queue_probe.times
        self.abr_queue_probe.values = self.queue_probe.values
        #: Cumulative drop count as a step series (pairs with
        #: :attr:`drops_by_vc` for per-VC attribution).
        self.drops_probe = StepProbe(f"{name}.drops")
        # raw storage of the two per-cell probes, for the hand-inlined
        # records in receive/_transmitted (the arrays mutate in place,
        # so these aliases stay valid until _split_series replaces the
        # ABR pair)
        self._q_times = self.queue_probe.times
        self._q_vals = self.queue_probe.values
        self._a_times = self.abr_queue_probe.times
        self._a_vals = self.abr_queue_probe.values
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        self.drops_by_vc: Counter[str] = Counter()

    # ------------------------------------------------------------------
    @property
    def queue_len(self) -> int:
        return self._qlen

    @property
    def abr_queue_len(self) -> int:
        return self._abr_qlen if self._mixed else self._qlen

    @property
    def capacity_cells_per_sec(self) -> float:
        return units.mbps_to_cells_per_sec(self.rate_mbps)

    # ------------------------------------------------------------------
    def set_service_deduction(self, rate_mbps: float) -> None:
        """Reserve ``rate_mbps`` of the line for traffic outside the
        cell model (the fluid background aggregate in hybrid mode).

        The port keeps serving its own queue at the residual rate,
        floored at 5% of the line so a background burst cannot stall
        the foreground entirely.  Takes effect from the next service
        start — in-flight serialization is never preempted.
        """
        residual = self.rate_mbps - rate_mbps
        floor = 0.05 * self.rate_mbps
        if residual < floor:
            residual = floor
        self.cell_time = units.cell_time(residual)

    def _split_series(self) -> None:
        """First guaranteed-class arrival: from here on the ABR queue
        can differ from the total, so the ABR probe gets its own copy of
        the series recorded so far and the port starts keeping the ABR
        count and choosing the queue to serve."""
        self._mixed = True
        self._abr_qlen = self._qlen
        probe = self.abr_queue_probe
        probe.times = self._a_times = array("d", self._q_times)
        probe.values = self._a_vals = array("d", self._q_vals)

    def receive(self, cell: Cell) -> None:
        """Cell routed to this port by the switch."""
        self.arrivals += 1
        on_arrival = self._alg_on_arrival
        if on_arrival is not None:
            on_arrival(cell)
        if cell.is_rm and cell.direction is RMDirection.FORWARD:
            self._alg_on_forward_rm(cell)
        if self._qlen >= self._buf_limit:
            self.drops += 1
            self.drops_by_vc[cell.vc] += 1
            self.drops_probe.record(self.sim.now, self.drops)
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.sim.now, "port.drop", self.name,
                            vc=cell.vc, qlen=self._qlen, drops=self.drops)
            return
        level = cell.priority
        if level >= self._max_level:
            queue = self._abr_queue
            if self._mixed:
                self._abr_qlen += 1
        else:
            if not self._mixed:
                self._split_series()
            queue = self._queues[level if level > 0 else 0]
        queue.append(cell)
        qlen = self._qlen = self._qlen + 1
        # StepProbe.record hand-inlined for the queue probes (dedup
        # equal values, coalesce equal timestamps; the backwards-time
        # guard is skipped — simulation time is monotonic here).  Probe
        # updates on every cell event make the call overhead itself the
        # dominant cost, hence no helper call.
        now = self.sim.now
        vals = self._q_vals
        if not vals or vals[-1] != qlen:
            times = self._q_times
            if times and times[-1] == now:
                vals[-1] = qlen
            else:
                times.append(now)
                vals.append(qlen)
        if self._mixed:
            value = self._abr_qlen
            vals = self._a_vals
            if not vals or vals[-1] != value:
                times = self._a_times
                if times and times[-1] == now:
                    vals[-1] = value
                else:
                    times.append(now)
                    vals.append(value)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(now, "port.enqueue", self.name,
                        vc=cell.vc, qlen=qlen)
        if not self._busy:
            self._busy = True
            self._serving = queue
            heappush(self._sim_heap,
                     (now + self.cell_time, next(self._sim_seq),
                      None, self._tx_cb, ()))

    def _transmitted(self) -> None:
        # Drains a whole back-to-back cell train in one callback: after
        # each departure the next service completion is reached through
        # advance_inline, which only succeeds when no other event (an
        # arrival, a timer) is due first — so the executed schedule is
        # identical to the one-event-per-cell kernel, minus the heap
        # traffic.  Attributes are read at point of use, not hoisted:
        # at a contended port arrivals interleave between departures, so
        # the common case is exactly one iteration and hoisting costs
        # more than it saves.
        sim = self.sim
        while True:
            serving = self._serving
            cell = serving.popleft()
            qlen = self._qlen = self._qlen - 1
            # StepProbe.record hand-inlined (see receive)
            now = sim.now
            vals = self._q_vals
            if not vals or vals[-1] != qlen:
                times = self._q_times
                if times and times[-1] == now:
                    vals[-1] = qlen
                else:
                    times.append(now)
                    vals.append(qlen)
            if self._mixed:
                if serving is self._abr_queue:
                    self._abr_qlen -= 1
                value = self._abr_qlen
                vals = self._a_vals
                if not vals or vals[-1] != value:
                    times = self._a_times
                    if times and times[-1] == now:
                        vals[-1] = value
                    else:
                        times.append(now)
                        vals.append(value)
            self.departures += 1
            on_departure = self._alg_on_departure
            if on_departure is not None:
                on_departure(cell)
            prop = self.propagation
            if prop > 0:
                deliver_at = self._deliver_at
                if deliver_at is not None:
                    deliver_at(cell, now + prop)
                else:
                    heappush(self._sim_heap,
                             (now + prop, next(self._sim_seq), None,
                              self._sink_receive, (cell,)))
            else:
                self._sink_receive(cell)
            if self._qlen:
                # non-preemptive priority: the next queue to serve is
                # fixed now, at this service completion (a single-class
                # port keeps serving its ABR queue)
                if self._mixed:
                    for queue in self._queues:
                        if queue:
                            self._serving = queue
                            break
                at = now + self.cell_time
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
                self._serving = None
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<OutputPort {self.name} {self.rate_mbps}Mb/s "
                f"q={self.queue_len} alg={self.algorithm.name}>")
