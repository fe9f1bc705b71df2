"""Golden digests for the fluid stepper: determinism, committed.

Same contract as ``tests/golden`` holds for the event kernel: every
fluid configuration here reduces to probe-series sha256 digests over
raw IEEE-754 bytes plus verbatim counters, committed in
``fixtures/fluid_golden.json``.  Any change to the stepper's arithmetic
— a reordered accumulation, a different clamp, a new term — shifts some
digest and fails here, so fluid "optimisations" are licensed the same
way kernel ones are: prove bit-identity or recapture the fixture
deliberately.

Regenerate after an intentional dynamics change with::

    PYTHONPATH=src python tests/fluid/test_golden_fluid.py --regen
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fluid.hybrid import hybrid_staggered
from repro.fluid.scenarios import build_fluid, many_flows
from repro.perf import golden
from repro.scenarios.atm import (onoff_config, parking_config,
                                 staggered_config)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / \
    "fluid_golden.json"


def _staggered():
    return build_fluid(staggered_config(n_sessions=3, duration=0.2))


def _onoff():
    return build_fluid(onoff_config(duration=0.3), seed=11)


def _parking():
    return build_fluid(parking_config(hops=3, duration=0.2))


def _rm_loss():
    return build_fluid(dict(staggered_config(n_sessions=2, duration=0.2),
                            rm_loss=0.3))


def _many_small():
    return many_flows(cohorts=10, flows_per_cohort=100, greedy=5,
                      duration=0.2)


def _hybrid():
    return hybrid_staggered(foreground=2, background=200,
                            background_demand_mbps=0.1, duration=0.15)


#: name -> builder; every entry has a committed digest set.
CONFIGS = {
    "staggered": _staggered,
    "onoff": _onoff,
    "parking": _parking,
    "rm_loss": _rm_loss,
    "many_small": _many_small,
    "hybrid": _hybrid,
}


def _capture(name: str) -> dict:
    return golden.trace_from_run(name, 1.0, CONFIGS[name]())


def _fixture() -> dict:
    return golden.read_trace(str(FIXTURE))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fluid_config_reproduces_golden_digests(name):
    expected = _fixture()[name]
    actual = _capture(name)
    assert golden.compare_traces(expected, actual) == []


def test_every_config_has_a_fixture_entry():
    assert sorted(_fixture()) == sorted(CONFIGS)


def test_capture_is_deterministic():
    first = _capture("onoff")
    second = _capture("onoff")
    assert golden.compare_traces(first, second) == []


def test_tracing_changes_no_fluid_outcome():
    """A fluid run with the trace bus fully enabled must reproduce the
    committed digests bit-exactly (observation invariance)."""
    from repro.obs import Tracer

    tracer = Tracer()
    run = build_fluid(staggered_config(n_sessions=3, duration=0.2),
                      tracer=tracer)
    assert len(tracer.events) > 0
    traced = golden.trace_from_run("staggered", 1.0, run)
    assert golden.compare_traces(_fixture()["staggered"], traced) == []


def _regenerate() -> None:
    import json

    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    traces = {name: _capture(name) for name in sorted(CONFIGS)}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(traces, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({len(traces)} configs)")


if __name__ == "__main__":  # pragma: no cover - regeneration entry
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("pass --regen to overwrite the fixture")
    _regenerate()
