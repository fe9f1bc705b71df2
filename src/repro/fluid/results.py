"""Fluid and hybrid run handles.

Same vocabulary as the packet run handles — steady-state rates, Jain
fairness, utilisation, queue statistics — so the validation suite can
compare a packet :class:`~repro.scenarios.generic.AtmRun` and a
:class:`FluidRun` field by field.  The one deliberate difference: fluid
rates are *per flow*, and every aggregate (fairness, utilisation) is
count-weighted, so a cohort of ten thousand flows counts as ten
thousand equal claimants, not one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import queue_stats
from repro.fluid.model import FluidNetwork, FluidTrunk
from repro.sim.probe import Probe

# HybridRun's fields reference AtmRun (repro.scenarios.generic) and
# HybridCoupling (repro.fluid.hybrid) by string annotation only: an
# import here — even a TYPE_CHECKING one — would drag the packet stack
# and the coupling layer into the import closure of every pure-fluid
# task fingerprint.


@dataclass
class FluidRun:
    """A completed fluid scenario."""

    net: FluidNetwork
    bottleneck: FluidTrunk
    duration: float

    @property
    def queue_probe(self) -> Probe:
        return self.bottleneck.queue_probe

    @property
    def macr_probe(self) -> Probe:
        return self.bottleneck.macr_probe

    def steady_window(self, fraction: float = 0.25) -> tuple[float, float]:
        """The last ``fraction`` of the run, where steady state is read."""
        return self.duration * (1 - fraction), self.duration

    def steady_rates(self, fraction: float = 0.25) -> dict[str, float]:
        """Mean per-flow rate per cohort over the steady window (Mb/s)."""
        start, end = self.steady_window(fraction)
        rates: dict[str, float] = {}
        for cohort in self.net.cohorts:
            probe = cohort.rate_probe
            if len(probe):
                rates[cohort.name] = probe.window(start, end).mean()
            else:
                # cohort recording off (perf runs): final rate stands in
                rates[cohort.name] = cohort.send_mbps
        return rates

    def jain(self, fraction: float = 0.25) -> float:
        """Count-weighted Jain index over per-flow steady rates."""
        rates = self.steady_rates(fraction)
        total = 0.0
        squares = 0.0
        flows = 0
        for cohort in self.net.cohorts:
            rate = rates[cohort.name]
            total += cohort.count * rate
            squares += cohort.count * rate * rate
            flows += cohort.count
        # exact zero on purpose: all-idle cohorts accumulate literal 0.0
        if squares == 0.0:
            return 1.0
        return total * total / (flows * squares)

    def utilization(self, fraction: float = 0.25) -> float:
        """Count-weighted aggregate steady rate over the bottleneck."""
        rates = self.steady_rates(fraction)
        total = sum(cohort.count * rates[cohort.name]
                    for cohort in self.net.cohorts
                    if self.bottleneck.name in cohort.route)
        return total / self.bottleneck.capacity_mbps

    def queue_stats(self, start: float = 0.0,
                    end: float | None = None) -> dict[str, float]:
        return queue_stats(self.queue_probe, start, end or self.duration)


@dataclass
class HybridRun:
    """A packet foreground and a fluid background, coupled per trunk.

    Foreground accuracy questions (rates, fairness, queue) read through
    the packet run; background aggregates read through the fluid run.
    """

    atm: "AtmRun"
    fluid: FluidRun
    coupling: "HybridCoupling"
    duration: float

    @property
    def net(self):
        return self.atm.net

    @property
    def bottleneck(self):
        return self.atm.bottleneck

    @property
    def queue_probe(self) -> Probe:
        return self.atm.queue_probe

    @property
    def macr_probe(self) -> Probe | None:
        return self.atm.macr_probe

    def steady_window(self, fraction: float = 0.25) -> tuple[float, float]:
        return self.duration * (1 - fraction), self.duration

    def steady_rates(self, fraction: float = 0.25) -> dict[str, float]:
        """Foreground steady rates — the packet-accurate series.

        Standard-metrics alias for :meth:`foreground_rates`, so the
        exec worker reduces a hybrid run with the ATM reducer.
        """
        return self.atm.steady_rates(fraction)

    def utilization(self, fraction: float = 0.25) -> float:
        """Foreground utilisation of the packet bottleneck."""
        return self.atm.utilization(fraction)

    def foreground_rates(self, fraction: float = 0.25) -> dict[str, float]:
        """Steady rates of the packet-accurate foreground sessions."""
        return self.atm.steady_rates(fraction)

    def background_rates(self, fraction: float = 0.25) -> dict[str, float]:
        """Steady per-flow rates of the fluid background cohorts."""
        return self.fluid.steady_rates(fraction)

    def jain(self, fraction: float = 0.25) -> float:
        return self.atm.jain(fraction)

    def queue_stats(self, start: float = 0.0,
                    end: float | None = None) -> dict[str, float]:
        return self.atm.queue_stats(start, end)


__all__ = ["FluidRun", "HybridRun"]
