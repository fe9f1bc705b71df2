"""Traffic workloads beyond plain greedy sources.

The paper's Fig. 4 and Fig. 22 test the algorithms "in an environment
with on/off sessions": sources that alternate between demanding their
full share and going silent, stressing how quickly the switch reclaims
and re-grants bandwidth.
"""

from __future__ import annotations

import random

from repro.atm.endsystem import AbrSource
from repro.sim import Simulator


class OnOffDriver:
    """Toggle a source between active and idle.

    Each period is drawn from ``rng`` as an exponential with mean
    ``on_time`` or ``off_time`` — the usual bursty-traffic model.
    """

    def __init__(self, sim: Simulator, source: AbrSource,
                 on_time: float, off_time: float, rng: random.Random,
                 start_active: bool = True):
        if on_time <= 0 or off_time <= 0:
            raise ValueError("on_time and off_time must be positive")
        self.sim = sim
        self.source = source
        self.on_time = on_time
        self.off_time = off_time
        self.rng = rng
        self.transitions = 0
        self._active = start_active
        source.set_active(start_active)
        self.sim.schedule(self._duration(), self._toggle)

    def _duration(self) -> float:
        mean = self.on_time if self._active else self.off_time
        return self.rng.expovariate(1.0 / mean)

    def _toggle(self) -> None:
        self._active = not self._active
        self.transitions += 1
        self.source.set_active(self._active)
        self.sim.schedule(self._duration(), self._toggle)
