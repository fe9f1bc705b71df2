"""Per-Δt difference-equation stepping of flow-cohort groups.

This is the fluid tier's hot path.  A :class:`FlowGroup` collects every
cohort that shares a (route, feedback delay, source parameters, RM-loss)
tuple and steps all of them with one pass over parallel ``array('d')``
columns — the cost of one simulated second is
``groups × cohorts-per-group × (1/Δt)`` float operations, independent of
how many flows each cohort aggregates and independent of cell count.

The source model is the per-interval limit of the TM 4.0 end-system rule
the packet engine implements (``repro.atm.endsystem.AbrSource.receive``).
A flow sending at ``s`` Mb/s emits ``s·10⁶/(424·Nrm)`` backward RM cells
per second, so over one interval Δt it sees ``ν = s·k_rm`` feedback
events, each surviving independently with probability ``1 − rm_loss``:

* **ER mode** (Phantom explicit-rate): each surviving RM adds
  ``AIR·Nrm`` Mb/s while ACR is below the stamped ER, and clamps ACR to
  ER from above.  Per Δt the increase is ``ν·min(AIR·Nrm, ER − ACR)``
  and the decrease closes the fraction ``min(ν, 1)`` of the gap — a
  snap at the paper's rates (ν ≫ 1), a sluggish partial response at
  millibit per-flow shares, where the slow feedback is what keeps huge
  populations from swinging in lockstep.  RM loss scales both slopes
  by the survival probability.
* **binary mode**: each RM with CI multiplies ACR by the decrease factor
  ``1 − Nrm/RDF``; ν of them per interval give the exact fluid limit
  ``acr *= df^ν = exp(ν·ln df)``.  Below the grant, ACR grows additively
  exactly as in ER mode (NI holds it when enabled).

ACR stays clamped to ``[floor_mbps, pcr]`` like the packet source, and a
cohort with zero demand receives **no** feedback at all — an idle packet
source does not send RMs, so its ACR must not track ER while silent.

``tests/fluid/test_imports.py`` keeps this module (and the rest of the
fluid core) free of event-kernel and cell-level imports.
"""

from __future__ import annotations

from array import array
from collections import deque
from math import exp, log

from repro.atm.params import AbrParams
from repro.sim.units import CELL_BITS


def rate_cells_per_interval(rate_mbps: float, interval_s: float) -> float:
    """Cells carried by a sustained rate over one averaging interval."""
    return rate_mbps * 1e6 * interval_s / CELL_BITS


def cells_to_mbps(cells: float, interval_s: float) -> float:
    """The rate that carries ``cells`` cells in one averaging interval."""
    return cells * CELL_BITS / (interval_s * 1e6)


class FlowGroup:
    """Cohorts sharing (route, feedback delay, params, loss, mode).

    The per-cohort state lives in four parallel ``array('d')`` columns —
    ACR, current demand, ER weight, and flow count — so the inner step
    is a single zip over machine doubles.  Everything derivable from the
    shared :class:`~repro.atm.params.AbrParams` is precomputed as a
    group scalar.
    """

    __slots__ = ("route", "trunks", "params", "dt", "delay_slots",
                 "rm_loss", "mode", "use_ni", "ni_fraction",
                 "forward_delays",
                 "acr", "dem", "wgt", "cnt", "cohorts",
                 "k_rm", "nu_min", "air", "ln_df",
                 "pcr", "mcr", "floor", "icr",
                 "offered_mbps", "_grant_ring", "_fwd_rings")

    def __init__(self, route: tuple[str, ...], trunks: list,
                 params: AbrParams, dt: float, delay_slots: int,
                 rm_loss: float, mode: str, use_ni: bool,
                 ni_fraction: float,
                 forward_delays: tuple[float, ...] | None = None):
        self.route = route
        self.trunks = trunks
        self.params = params
        self.dt = dt
        self.delay_slots = delay_slots
        self.rm_loss = rm_loss
        self.mode = mode
        self.use_ni = use_ni
        self.ni_fraction = ni_fraction
        self.forward_delays = forward_delays

        self.acr = array("d")
        self.dem = array("d")
        self.wgt = array("d")
        self.cnt = array("d")
        self.cohorts: list = []

        # feedback events per Δt per Mb/s of sending rate, discounted by
        # the survival probability of each backward RM
        survive = 1.0 - rm_loss
        rm_per_mbps = 1e6 / (CELL_BITS * params.nrm) * dt
        self.k_rm = rm_per_mbps * survive
        #: TM 4.0's Trm backstop: a source sends a forward RM at least
        #: every ``trm`` seconds however slowly it is sending, so the
        #: per-flow feedback rate never drops below 1/trm events/s.
        self.nu_min = dt / params.trm * survive
        self.air = params.air_nrm
        self.ln_df = log(params.decrease_factor)
        self.pcr = params.pcr
        self.mcr = params.mcr
        self.floor = params.floor_mbps
        self.icr = min(max(params.icr, params.floor_mbps), params.pcr)

        self.offered_mbps = 0.0
        self._grant_ring: deque[float] | None = None
        # per-hop forward pipeline: arrival of this group's aggregate at
        # hop j is its offered rate delayed by the cumulative propagation
        # ahead of that hop, quantised to Δt slots (None = same-interval)
        self._fwd_rings: list[deque[float] | None] = []
        delays = forward_delays or (0.0,) * len(trunks)
        cumulative = 0.0
        for hop_delay in delays:
            slots = int(round(cumulative / dt))
            self._fwd_rings.append(
                deque([0.0] * slots) if slots > 0 else None)
            cumulative += hop_delay

    # ------------------------------------------------------------------
    def add(self, cohort, demand_mbps: float) -> int:
        """Append one cohort's column slot; returns its index."""
        index = len(self.acr)
        self.acr.append(self.icr)
        self.dem.append(demand_mbps)
        self.wgt.append(cohort.weight)
        self.cnt.append(float(cohort.count))
        self.cohorts.append(cohort)
        return index

    def prime(self) -> None:
        """Fill the feedback-delay ring with the grant visible at t=0.

        ``delay_slots == 0`` means sources react to the freshest grant
        within the same interval — the packet behaviour when the RM
        round trip is short against Δt (the zero-propagation paper
        topologies).  A positive count pipelines the grant.
        """
        if self.delay_slots > 0:
            grant = min(trunk.grant_now for trunk in self.trunks)
            self._grant_ring = deque([grant] * self.delay_slots)

    # ------------------------------------------------------------------
    def step(self) -> float:
        """Advance every cohort one Δt; feed arrivals to the trunks."""
        grant = self.trunks[0].grant_now
        for trunk in self.trunks:
            if trunk.grant_now < grant:
                grant = trunk.grant_now
        ring = self._grant_ring
        if ring is not None:
            ring.append(grant)
            gbase = ring.popleft()
        else:
            gbase = grant
        if self.mode == "binary":
            offered = self._step_binary(gbase)
        else:
            offered = self._step_er(gbase)
        self.offered_mbps = offered
        for trunk, fwd in zip(self.trunks, self._fwd_rings):
            if fwd is None:
                trunk.arrivals_mbps += offered
            else:
                fwd.append(offered)
                trunk.arrivals_mbps += fwd.popleft()
        return offered

    # ------------------------------------------------------------------
    def _step_er(self, gbase: float) -> float:
        """Explicit-rate update; returns the aggregate rate in Mb/s.

        The decrease closes only the gap fraction ``min(ν, 1)`` the
        interval's surviving feedback events can reach: a source at
        s Mb/s sees ν = s·k_rm backward RMs per Δt, and at low rates
        ν < 1 — the feedback is *slower* than the averaging interval,
        which is precisely what keeps large-n populations from swinging
        in lockstep (and what the packet sources do).  The increase is
        the same expectation, ``ν·min(AIR·Nrm, gap)``.
        """
        acr = self.acr
        k_rm = self.k_rm
        nu_min = self.nu_min
        air = self.air
        pcr = self.pcr
        mcr = self.mcr
        floor = self.floor
        offered = 0.0
        i = 0
        for a, d, w, c in zip(acr, self.dem, self.wgt, self.cnt):
            if d > 0.0:
                er = w * gbase
                if er < mcr:
                    er = mcr
                if er > pcr:
                    er = pcr
                s = a if a < d else d
                raw = s * k_rm
                if raw < nu_min:
                    raw = nu_min
                nu = raw if raw < 1.0 else 1.0
                if a >= er:
                    # each RM clamps ACR to ER, so ν of them close the
                    # fraction ν of the gap (per-flow expectation)
                    a = er + (a - er) * (1.0 - nu)
                else:
                    # each RM adds AIR·Nrm but never past ER: the
                    # per-interval expectation is ν·min(AIR·Nrm, gap)
                    inc = raw * air
                    gap = (er - a) * nu
                    a += inc if inc < gap else gap
                if a < floor:
                    a = floor
                acr[i] = a
                offered += (a if a < d else d) * c
            i += 1
        return offered

    def _step_binary(self, gbase: float) -> float:
        """Binary (CI/NI) update against the unweighted grant."""
        acr = self.acr
        k_rm = self.k_rm
        nu_min = self.nu_min
        air = self.air
        ln_df = self.ln_df
        use_ni = self.use_ni
        ni_level = self.ni_fraction * gbase
        pcr = self.pcr
        floor = self.floor
        offered = 0.0
        i = 0
        for a, d, _w, c in zip(acr, self.dem, self.wgt, self.cnt):
            if d > 0.0:
                s = a if a < d else d
                raw = s * k_rm
                if raw < nu_min:
                    raw = nu_min
                if a > gbase:
                    # ν CI-marked RMs each multiply by the decrease
                    # factor: the exact fluid limit is df**ν
                    a *= exp(raw * ln_df)
                elif use_ni and a > ni_level:
                    pass
                else:
                    a += raw * air
                if a > pcr:
                    a = pcr
                if a < floor:
                    a = floor
                acr[i] = a
                offered += (a if a < d else d) * c
            i += 1
        return offered
