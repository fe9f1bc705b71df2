"""Hybrid coupling: contract unit tests and foreground accuracy."""

import pytest

from repro.baselines import EricaAlgorithm
from repro.core import phantom_equilibrium_rate
from repro.fluid.hybrid import (HybridCoupling, hybrid_staggered,
                                packet_twin)
from repro.fluid.model import FluidNetwork
from repro.perf.golden import probe_digest, run_parts
from repro.scenarios.atm import staggered_config
from repro.scenarios.generic import build_atm

ONE_SESSION = staggered_config(n_sessions=1, duration=0.05)


# ----------------------------------------------------------------------
# coupling contract
# ----------------------------------------------------------------------
def test_couple_rejects_algorithms_without_demand_hook():
    atm_run = build_atm(ONE_SESSION, algorithm_factory=EricaAlgorithm,
                        run=False)
    fluid_net = FluidNetwork()
    trunk = fluid_net.add_trunk("T")
    coupling = HybridCoupling(atm_run.net, fluid_net)
    with pytest.raises(TypeError, match="demand_hook"):
        coupling.couple(atm_run.bottleneck, trunk)


def test_start_rejects_interval_mismatch():
    from repro.core import PhantomAlgorithm
    from repro.core.params import PhantomParams

    atm_run = build_atm(ONE_SESSION, algorithm_factory=PhantomAlgorithm,
                        run=False)
    fluid_net = FluidNetwork(phantom=PhantomParams(interval=2e-3))
    trunk = fluid_net.add_trunk("T")
    coupling = HybridCoupling(atm_run.net, fluid_net)
    coupling.couple(atm_run.bottleneck, trunk)
    with pytest.raises(ValueError, match="interval"):
        coupling.start()


def test_coupling_feeds_background_demand_into_macr():
    """With the coupling live, the packet MACR must see the fluid
    background: the granted foreground rate lands near the reduced-
    capacity equilibrium, not the empty-link one."""
    run = hybrid_staggered(foreground=2, background=500,
                           background_demand_mbps=0.1, duration=0.2)
    load = 500 * 0.1
    expected = 5.0 * (150.0 - load) / (2 * 5.0 + 1)
    for rate in run.foreground_rates().values():
        assert rate == pytest.approx(expected, rel=0.15)
    # and the empty-link share would be far off
    assert all(rate < 0.8 * phantom_equilibrium_rate(150.0, 2, 5.0)
               for rate in run.foreground_rates().values())


def test_background_is_served_and_deducted():
    run = hybrid_staggered(foreground=1, background=200,
                           background_demand_mbps=0.2, duration=0.15)
    # fluid background actually flowed ...
    assert run.background_rates()["bg0"] == pytest.approx(0.2, rel=0.05)
    # ... and the packet port is serving at line minus background
    port = run.atm.bottleneck
    deducted_cell_time = port.cell_time
    assert deducted_cell_time > 424 / (150.0 * 1e6)
    # the fluid trunk saw the foreground as its service deduction
    assert run.fluid.bottleneck.service_deduction_mbps > 0.0


def test_hybrid_is_deterministic():
    def digests():
        run = hybrid_staggered(foreground=2, background=300,
                               background_demand_mbps=0.1,
                               duration=0.12)
        probes, counters = run_parts(run)
        return ({name: probe_digest(p) for name, p in probes.items()},
                counters)

    assert digests() == digests()


# ----------------------------------------------------------------------
# foreground accuracy vs the all-packet twin
# ----------------------------------------------------------------------
def test_foreground_matches_packet_twin():
    """Matched-load comparison at the validation config: the hybrid
    foreground must land within the documented band of the all-packet
    twin (docs/FLUID.md — the residual gap is packet MACR quantisation
    noise through the asymmetric filter, not coupling error)."""
    kwargs = dict(foreground=2, background=500,
                  background_demand_mbps=0.2, duration=0.25)
    hybrid = hybrid_staggered(**kwargs)
    twin = packet_twin(**kwargs)
    twin_fg = {vc: rate for vc, rate in twin.steady_rates().items()
               if not vc.startswith("bg")}
    load = 500 * 0.2
    expected = 5.0 * (150.0 - load) / (2 * 5.0 + 1)
    for vc, twin_rate in twin_fg.items():
        hybrid_rate = hybrid.foreground_rates()[vc]
        assert hybrid_rate == pytest.approx(twin_rate, rel=0.25)
        # both sides must also sit near the analytic reduced-capacity
        # share — this pins the comparison to the right fixed point
        assert hybrid_rate == pytest.approx(expected, rel=0.15)
        assert twin_rate == pytest.approx(expected, rel=0.25)


def test_hybrid_exec_entry_round_trips():
    from repro.exec.spec import TaskSpec
    from repro.exec.worker import execute_task

    spec = TaskSpec(task_id="t", scenario="fluid.hybrid_e01",
                    params={"foreground": 2, "background": 100,
                            "background_demand_mbps": 0.2,
                            "duration": 0.1})
    out = execute_task({"spec": spec.to_dict()})
    assert out["status"] == "ok", out.get("error")
    assert "rates.s0" in out["metrics"]
    # digests cover both the packet foreground and the fluid mirror
    names = set(out["probe_digests"])
    assert any(name.endswith(":fluid.queue") or ":fluid" in name
               for name in names), sorted(names)
