"""Guaranteed-service background traffic: CBR and on/off VBR sources.

ABR is defined as the service that uses whatever the guaranteed classes
leave over; these sources generate that guaranteed load.  Their cells are
priority 0 (served before ABR at every output port, see
:class:`repro.atm.port.OutputPort`) and carry no flow control — the
network must simply absorb them, and Phantom's residual measurement must
re-grant what they stop using.
"""

from __future__ import annotations

import random

from repro.atm.cell import Cell
from repro.atm.link import CellSink, CountingSink
from repro.sim import Event, Simulator, units


class BackgroundSink(CountingSink):
    """Absorbing endpoint for background traffic (counts deliveries)."""

    def __init__(self, vc: str):
        super().__init__(vc)
        self._cells_received = 0

    @property
    def cells_received(self) -> int:
        """Cells delivered so far."""
        self._retire()
        return self._cells_received

    def count_absorbed(self, n: int, last: Cell) -> None:
        self._cells_received += n

    def receive(self, cell: Cell) -> None:
        if cell.vc != self.vc:
            raise ValueError(
                f"background sink {self.vc} got cell for {cell.vc!r}")
        self._cells_received += 1


class CbrSource(CellSink):
    """Constant bit rate source on a guaranteed (priority-0) VC."""

    def __init__(self, sim: Simulator, vc: str, rate_mbps: float,
                 start: float = 0.0, stop: float | None = None):
        if rate_mbps <= 0:
            raise ValueError(f"rate must be positive, got {rate_mbps!r}")
        if stop is not None and stop <= start:
            raise ValueError("stop must come after start")
        self.sim = sim
        self.vc = vc
        self.rate_mbps = rate_mbps
        self.start_time = start
        self.stop_time = stop
        self.link: CellSink | None = None
        self.cells_sent = 0
        self._pending: Event | None = None

    def attach_link(self, link: CellSink) -> None:
        self.link = link

    def start(self) -> None:
        if self.link is None:
            raise RuntimeError(f"background source {self.vc} has no link")
        self.sim.schedule_at(max(self.start_time, self.sim.now), self._emit)

    def _current_rate(self) -> float:
        """Rate in Mb/s right now (hook for VBR)."""
        return self.rate_mbps

    def _emit(self) -> None:
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return
        self.link.receive(Cell(vc=self.vc, seq=self.cells_sent, priority=0))
        self.cells_sent += 1
        self._pending = self.sim.schedule(
            units.cell_time(self._current_rate()), self._emit)

    def receive(self, cell: Cell) -> None:  # pragma: no cover - defensive
        raise TypeError(f"background source {self.vc} received a cell")


class VbrSource(CbrSource):
    """Two-state (on/off) variable bit rate source.

    Alternates between ``peak_mbps`` and silence with exponentially
    distributed state durations — the classic bursty-video stand-in.
    Mean load is ``peak * mean_on / (mean_on + mean_off)``.
    """

    def __init__(self, sim: Simulator, vc: str, peak_mbps: float,
                 mean_on: float, mean_off: float,
                 rng: random.Random | None = None,
                 start: float = 0.0, stop: float | None = None):
        if mean_on <= 0 or mean_off <= 0:
            raise ValueError("mean_on and mean_off must be positive")
        super().__init__(sim, vc, peak_mbps, start=start, stop=stop)
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.rng = rng or random.Random(0)
        self._on = True
        self.transitions = 0

    def start(self) -> None:
        super().start()
        self.sim.schedule_at(
            max(self.start_time, self.sim.now) + self._state_duration(),
            self._toggle)

    def _state_duration(self) -> float:
        mean = self.mean_on if self._on else self.mean_off
        return self.rng.expovariate(1.0 / mean)

    def _toggle(self) -> None:
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return
        self._on = not self._on
        self.transitions += 1
        if self._on:
            self._emit()
        elif self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self.sim.schedule(self._state_duration(), self._toggle)

    def _emit(self) -> None:
        if not self._on:
            return
        super()._emit()
