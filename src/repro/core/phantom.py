"""The Phantom switch algorithm (explicit-rate mode).

This is the paper's primary contribution, Section 2.  Per output port:

1. every Δt seconds measure the residual bandwidth Δ (see
   :mod:`repro.core.residual`);
2. fold it into MACR (see :mod:`repro.core.macr`);
3. stamp every backward RM cell:  ``ER := min(ER, f · MACR)`` where
   ``f`` is the utilization factor.

In equilibrium with n greedy sessions each converges to
``r = f·C / (n·f + 1)`` — exactly the max-min fair share of a link shared
with one *phantom* session whose weight is 1/f — and the link runs at
utilisation ``n·f/(n·f + 1)``.  Fairness is automatic: every session is
granted the *same* number, f · MACR, regardless of its round-trip time or
hop count (no beat-down).

The whole per-port state is MACR, DEV, and the interval's arrival count:
constant space, as the paper claims (asserted in the test suite).
"""

from __future__ import annotations

from repro.atm.cell import Cell, RMCell
from repro.atm.port import PortAlgorithm
from repro.core.macr import MacrFilter
from repro.core.params import DEFAULT_PHANTOM_PARAMS, PhantomParams
from repro.core.residual import ResidualMeter
from repro.sim import PeriodicTimer, Probe


class PhantomAlgorithm(PortAlgorithm):
    """Explicit-rate Phantom, one instance per switch output port."""

    name = "phantom"

    def __init__(self, params: PhantomParams = DEFAULT_PHANTOM_PARAMS):
        super().__init__()
        self.params = params
        self.meter: ResidualMeter | None = None
        self.filter: MacrFilter | None = None
        self.timer: PeriodicTimer | None = None
        #: The "MACR" series in the paper's figures.
        self.macr_probe = Probe("macr")
        #: Hybrid coupling hook: when set, called once per interval and
        #: must return the *cells* of demand contributed by traffic the
        #: port never saw as cells (the fluid background aggregate), so
        #: MACR measures the combined offered load.  ``None`` (the
        #: default) is the pure-packet path and costs one is-None check.
        self.demand_hook = None
        # trace hook; captured in on_attach (no sim yet), None-gated on
        # the "macr" category
        self._tracer = None

    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        self.meter = ResidualMeter(self.port.rate_mbps, self.params.interval)
        self.filter = MacrFilter(self.port.rate_mbps, self.params)
        self.macr_probe.name = f"{self.port.name}.macr"
        self.macr_probe.record(self.sim.now, self.filter.macr)
        self.timer = PeriodicTimer(self.sim, self.params.interval,
                                   self._on_interval)
        self.timer.start()
        tracer = self.sim.tracer
        self._tracer = (tracer.gate("macr") if tracer is not None
                        else None)

    def _on_interval(self, _timer: PeriodicTimer) -> None:
        hook = self.demand_hook
        if hook is not None:
            self.meter.cells_this_interval += hook()
        residual = self.meter.close_interval()
        macr = self.filter.update(residual)
        self.macr_probe.record(self.sim.now, macr)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(self.sim.now, "macr.update", self.macr_probe.name,
                        macr=macr, residual=residual, dev=self.filter.dev)

    # ------------------------------------------------------------------
    @property
    def macr(self) -> float:
        """Current MACR estimate in Mb/s."""
        return self.filter.macr

    @property
    def granted_rate(self) -> float:
        """The rate limit handed to every session (Mb/s).

        f · MACR, floored at ``grant_floor_fraction`` of the line rate so
        an overload transient cannot silence the RM feedback loop.
        """
        return max(self.params.utilization_factor * self.filter.macr,
                   self.params.grant_floor_fraction * self.port.rate_mbps)

    # ------------------------------------------------------------------
    def on_arrival(self, cell: Cell) -> None:
        # ResidualMeter.count() hand-inlined: this runs once per cell at
        # every phantom port, and the increment is the whole job
        self.meter.cells_this_interval += 1

    def on_backward_rm(self, rm: RMCell) -> None:
        # the grant is the same number for every unit of weight — that is
        # the fairness mechanism — but never below the session's
        # contracted minimum cell rate
        rm.er = min(rm.er, max(rm.weight * self.granted_rate, rm.mcr))

    def state_vars(self) -> dict[str, float]:
        state = self.filter.state_vars()
        state["cells_this_interval"] = float(self.meter.cells_this_interval)
        return state


def phantom_equilibrium_rate(capacity_mbps: float, sessions: int,
                             utilization_factor: float) -> float:
    """Closed-form per-session equilibrium rate ``f·C / (n·f + 1)``.

    Derivation: each of the n sessions settles at ``r = f·Δ`` while the
    residual satisfies ``Δ = C − n·r``; solve for r.
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions!r}")
    f = utilization_factor
    return f * capacity_mbps / (sessions * f + 1)


def phantom_equilibrium_utilization(sessions: int,
                                    utilization_factor: float) -> float:
    """Equilibrium link utilisation ``n·f / (n·f + 1)``."""
    nf = sessions * utilization_factor
    return nf / (nf + 1)
