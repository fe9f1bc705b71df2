"""Fluid tier through the observability surface (manifest + trace)."""

from repro.fluid.hybrid import hybrid_staggered
from repro.fluid.scenarios import build_fluid
from repro.obs import Tracer, registry_from_run
from repro.scenarios.atm import staggered_config

#: Two greedy sessions over 50 control intervals.
SHORT = staggered_config(n_sessions=2, duration=0.05)


def test_fluid_category_is_registered():
    # a typo'd category set must fail loudly, so "fluid" has to be known
    tracer = Tracer(categories={"fluid"})
    assert tracer.enabled("fluid")
    assert tracer.gate("fluid") is tracer
    assert tracer.gate("port") is None


def test_fluid_trace_events_are_emitted_and_gated():
    tracer = Tracer(categories={"fluid"})
    run = build_fluid(SHORT, tracer=tracer)
    assert run.net.steps == 50
    kinds = {kind for _, kind, _, _ in tracer.events}
    assert kinds == {"fluid.step"}
    ts, kind, comp, fields = tracer.events[0]
    assert comp == "S1->S2"
    assert {"macr", "queue", "offered", "grant"} <= set(fields)

    gated_off = Tracer(categories={"port"})
    run2 = build_fluid(SHORT, tracer=gated_off)
    assert gated_off.events == []
    assert run2.net.steps == 50


def test_registry_from_fluid_run():
    run = build_fluid(SHORT)
    summary = registry_from_run(run).summary()
    assert summary["repro_fluid_steps_total"] == 50
    assert summary["repro_fluid_time_seconds"] == run.net.now
    assert summary['repro_fluid_macr_mbps{trunk="S1->S2"}'] > 0
    assert summary['repro_fluid_acr_mbps{cohort="s0"}'] > 0
    assert summary['repro_fluid_flows{cohort="s1"}'] == 1
    # probe folding: queue series registered for the trunk
    assert any(key.startswith("repro_fluid_trunk_queue_cells")
               for key in summary)


def test_registry_from_hybrid_run_has_both_sides():
    run = hybrid_staggered(foreground=2, background=100,
                           background_demand_mbps=0.1, duration=0.05)
    summary = registry_from_run(run).summary()
    # packet foreground metrics ...
    assert summary['repro_cells_sent_total{vc="s0"}'] > 0
    assert summary["repro_sim_executed_events_total"] > 0
    # ... and fluid background metrics, under distinct names (the
    # coupling pre-steps the fluid side once before the first tick)
    assert summary["repro_fluid_steps_total"] == 51
    assert summary['repro_fluid_flows{cohort="bg0"}'] == 100


def test_fluid_prometheus_export_is_well_formed():
    run = build_fluid(SHORT)
    text = registry_from_run(run).prometheus_text()
    assert "# TYPE repro_fluid_steps_total counter" in text
    assert 'repro_fluid_macr_mbps{trunk="S1->S2"}' in text
