"""ABR end systems per ATM Forum TM 4.0 Appendix I (the paper's setup).

Source behaviour (the subset the paper's experiments exercise):

* cells are paced at the allowed cell rate **ACR**, starting from ICR;
* every ``Nrm``-th cell is an in-rate forward RM cell carrying
  ``CCR = ACR`` and ``ER = PCR``;
* on each backward RM cell:
  - CI = 1 → multiplicative decrease, ``ACR *= (1 - Nrm/RDF)``;
  - CI = 0 and NI = 0 → additive increase by ``AIR * Nrm`` (the paper's
    42.5 Mb/s per RM cell);
  - then ``ACR := min(ACR, ER, PCR)`` and ``ACR := max(ACR, MCR, TCR)``;
* a source that restarts after an idle period longer than
  ``params.idle_reset`` falls back to ICR (use-it-or-lose-it).

Destination behaviour: count delivered payload, remember the EFCI state of
the most recent data cell, and turn forward RM cells around — setting CI
when the remembered EFCI state is set (binary-mode feedback).
"""

from __future__ import annotations

from heapq import heappush

from repro.atm.cell import Cell, RMCell, RMDirection
from repro.atm.link import CellSink, CountingSink, Link
from repro.atm.params import AbrParams, PAPER_PARAMS
from repro.sim import PeriodicTimer, Probe, Simulator, units


class AbrSource(CellSink):
    """Rate-paced ABR traffic source for one session (VC)."""

    def __init__(self, sim: Simulator, vc: str,
                 params: AbrParams = PAPER_PARAMS,
                 start_time: float = 0.0):
        self.sim = sim
        self.vc = vc
        self.params = params
        self.start_time = start_time
        self.link: CellSink | None = None
        self._link_receive = None
        self._fast_link: Link | None = None

        self._acr = params.icr
        self.active = True
        self.started = False
        # Pacing runs on raw fast events with a stale-fire check rather
        # than cancellable handles: _next_emit is the authoritative next
        # emission time (None = paused), every assignment of it schedules
        # a wake-up at exactly that time, and _emit ignores any fire
        # whose timestamp is not the authoritative one.  Re-pacing after
        # a rate change therefore supersedes the old wake-up instead of
        # cancelling it — same wake-up times, no Event allocations on the
        # per-cell path.
        self._next_emit: float | None = None
        self._emit_cb = self._emit
        self._interval_cached = units.cell_time(self._acr)
        self._nrm = params.nrm
        # calendar-queue aliases for the inlined per-cell wake-up push
        # (see Simulator.schedule_fast_at for the entry-layout contract)
        self._sim_heap = sim._heap
        self._sim_seq = sim._seq
        self._last_emit: float | None = None

        self.cells_sent = 0
        self.data_sent = 0
        self.rm_sent = 0
        self.out_of_rate_rm_sent = 0
        self.backward_rms_seen = 0
        self._last_rm_time: float | None = None

        #: The "Sessions' allowed rate" series of the paper's figures.
        self.acr_probe = Probe(f"{vc}.acr")

    # ------------------------------------------------------------------
    @property
    def acr(self) -> float:
        """Current allowed cell rate in Mb/s."""
        return self._acr

    def _set_acr(self, value: float) -> None:
        value = min(value, self.params.pcr)
        value = max(value, self.params.floor_mbps)
        # exact compare on purpose: suppress no-op updates so the ACR
        # probe records changes only (not an arithmetic tolerance check)
        if value != self._acr:
            self._acr = value
            self._interval_cached = units.cell_time(value)
            self.acr_probe.record(self.sim.now, value)
            self._maybe_reschedule()

    def attach_link(self, link: CellSink) -> None:
        self.link = link
        self._link_receive = link.receive
        # lossless Link: _emit performs the cursor update and delivery
        # push itself (identical arithmetic; see Link.send), saving one
        # call frame per cell.  Lossy links and test stubs go through
        # receive.
        self._fast_link = (link if isinstance(link, Link)
                           and not link.loss_rate else None)

    def start(self) -> None:
        """Schedule the first emission at ``start_time``."""
        if self.started:
            raise RuntimeError(f"source {self.vc} already started")
        if self.link is None:
            raise RuntimeError(f"source {self.vc} has no link attached")
        self.started = True
        self.sim.schedule_at(
            max(self.start_time, self.sim.now), self._begin)

    def _begin(self) -> None:
        self.acr_probe.record(self.sim.now, self._acr)
        PeriodicTimer(self.sim, self.params.trm, self._trm_check).start()
        if self.active:
            # the direct call stands in for a wake-up firing right now
            self._next_emit = self.sim.now
            self._emit()

    def _trm_check(self, _timer) -> None:
        """TM 4.0 Trm rule: never go longer than trm without a forward RM.

        Keeps the feedback loop alive for sources throttled near TCR,
        whose in-rate RM spacing (Nrm cells) would otherwise stretch to
        seconds.  The cell is out-of-rate: it bypasses ACR pacing.
        """
        if not self.active:
            return
        if (self._last_rm_time is not None
                and self.sim.now - self._last_rm_time < self.params.trm):
            return
        rm = RMCell(vc=self.vc, seq=self.cells_sent,
                    direction=RMDirection.FORWARD,
                    ccr=self._acr, er=self.params.pcr,
                    mcr=self.params.mcr, weight=self.params.weight)
        self.rm_sent += 1
        self.out_of_rate_rm_sent += 1
        self._last_rm_time = self.sim.now
        self.link.receive(rm)

    # ------------------------------------------------------------------
    # workload control (on/off sources)
    # ------------------------------------------------------------------
    def set_active(self, active: bool) -> None:
        """Pause or resume the source (used by on/off workloads)."""
        if active == self.active:
            return
        self.active = active
        if not active:
            # no cancel: the outstanding wake-up turns stale and _emit
            # drops it on fire
            self._next_emit = None
            return
        if not self.started or self.sim.now < self.start_time:
            # _begin will emit the first cell if still active then
            return
        idle_reset = self.params.idle_reset
        if (idle_reset is not None and self._last_emit is not None
                and self.sim.now - self._last_emit > idle_reset):
            self._set_acr(self.params.icr)
        self._schedule_next(immediate=True)

    # ------------------------------------------------------------------
    # emission pacing
    # ------------------------------------------------------------------
    def _schedule_next(self, immediate: bool = False) -> None:
        if immediate and self._last_emit is not None:
            # respect pacing: never two cells closer than one ACR slot
            at = self.sim.now
            paced = self._last_emit + self._interval_cached
            if paced > at:
                at = paced
        else:
            at = self.sim.now + self._interval_cached
        self._next_emit = at
        heappush(self._sim_heap,
                 (at, next(self._sim_seq), None, self._emit_cb, ()))

    def _maybe_reschedule(self) -> None:
        """Pull the next emission closer after a rate increase.

        Pacing invariant: the next cell may go out at
        ``last_emit + 1/ACR``; if the pending emission (scheduled under a
        lower rate) sits later than that, move it up (the superseded
        wake-up turns stale).  The replacement wake-up draws a fresh,
        later heap sequence number than a cancel-and-reschedule kernel
        would have — harmless unless its instant exactly ties an
        unrelated event (see the tie caveat in docs/PERFORMANCE.md).
        """
        if self._next_emit is None or self._last_emit is None:
            return
        allowed = max(self.sim.now, self._last_emit + self._interval_cached)
        if self._next_emit > allowed:
            self._next_emit = allowed
            heappush(self._sim_heap,
                     (allowed, next(self._sim_seq), None,
                      self._emit_cb, ()))

    def _emit(self) -> None:
        # exact compare on purpose: a wake-up is authoritative iff it
        # fires at precisely the recorded emission time; anything else is
        # a superseded or paused-out wake-up and must do nothing
        now = self.sim.now
        if self._next_emit != now:
            return
        self._next_emit = None
        if not self.active:
            return
        if self.cells_sent % self._nrm == 0:
            cell: Cell = RMCell(
                vc=self.vc, seq=self.cells_sent,
                direction=RMDirection.FORWARD,
                ccr=self._acr, er=self.params.pcr,
                mcr=self.params.mcr, weight=self.params.weight)
            self.rm_sent += 1
            self._last_rm_time = now
        else:
            cell = Cell(self.vc, self.cells_sent)
            self.data_sent += 1
        self.cells_sent += 1
        self._last_emit = now
        link = self._fast_link
        if link is not None:
            # Link.send inlined for the lossless case: same cursor
            # arithmetic, same delivery push, one frame fewer per cell
            busy_until = link._busy_until
            dep = (busy_until if busy_until > now else now) + link.cell_time
            link._busy_until = dep
            deps = link._pending_deps
            if deps and deps[0] + link.propagation <= now:
                deps.popleft()
                link._delivered_base += 1
            deps.append(dep)
            heappush(self._sim_heap,
                     (dep + link.propagation, next(self._sim_seq), None,
                      link._sink_receive, (cell,)))
        else:
            self._link_receive(cell)
        # _schedule_next(immediate=False) inlined: handing the cell to
        # the link pushes one delivery event but never advances the
        # clock or touches this source's rate, so `now` and the cached
        # interval are still current
        at = now + self._interval_cached
        self._next_emit = at
        heappush(self._sim_heap,
                 (at, next(self._sim_seq), None, self._emit_cb, ()))

    # ------------------------------------------------------------------
    # feedback path
    # ------------------------------------------------------------------
    def receive(self, cell: Cell) -> None:
        """Backward RM cells come home here."""
        if not isinstance(cell, RMCell):
            raise TypeError(
                f"source {self.vc} received a non-RM cell: {cell!r}")
        if cell.direction is not RMDirection.BACKWARD:
            raise ValueError(
                f"source {self.vc} received a forward RM cell")
        self.backward_rms_seen += 1
        acr = self._acr
        if cell.ci:
            acr *= self.params.decrease_factor
        elif not cell.ni:
            acr += self.params.air_nrm
        acr = min(acr, cell.er)
        self._set_acr(acr)


class AbrDestination(CountingSink):
    """ABR destination end system: sink data, turn RM cells around.

    A data cell only bumps :attr:`data_received` and the remembered EFCI
    state, so its delivery may be absorbed (:class:`CountingSink`); the
    counter and every turnaround first retire the absorbed deliveries.
    """

    def __init__(self, sim: Simulator, vc: str,
                 efci_to_ci: bool = True):
        super().__init__(vc)
        self.sim = sim
        #: Binary mode: copy the remembered EFCI state into CI when
        #: turning an RM cell around (TM 4.0 destination behaviour).
        self.efci_to_ci = efci_to_ci
        self.reverse: CellSink | None = None

        self._data_received = 0
        self.rm_received = 0
        self._efci_state = False

    @property
    def data_received(self) -> int:
        """Data cells delivered so far."""
        self._retire()
        return self._data_received

    def count_absorbed(self, n: int, last: Cell) -> None:
        self._data_received += n
        self._efci_state = last.efci

    def attach_reverse(self, link: CellSink) -> None:
        self.reverse = link

    def receive(self, cell: Cell) -> None:
        if cell.vc != self.vc:
            raise ValueError(
                f"destination {self.vc} got cell for {cell.vc!r}")
        # absorbed deliveries that precede this one set the EFCI state
        self._retire()
        if cell.is_rm:
            if cell.direction is not RMDirection.FORWARD:
                raise ValueError(
                    f"destination {self.vc} received a backward RM cell")
            self.rm_received += 1
            cell.turn_around()
            if self.efci_to_ci and self._efci_state:
                cell.ci = True
                self._efci_state = False
            if self.reverse is None:
                raise RuntimeError(
                    f"destination {self.vc} has no reverse link")
            self.reverse.receive(cell)
            return
        self._data_received += 1
        self._efci_state = cell.efci
