"""Fluid tier through the observability surface (trace)."""

from repro.fluid.scenarios import build_fluid
from repro.obs import Tracer
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

