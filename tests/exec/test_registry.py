"""Scenario registry: importability enforcement and builtin entries."""

import pytest

from repro.exec import all_scenarios, get_scenario
from repro.exec.registry import _SCENARIOS, register_scenario


def module_level_entry(duration: float = 0.1):
    return duration


def module_level_param_deps(params):
    return ()


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway entries without leaking them."""
    before = dict(_SCENARIOS)
    yield
    _SCENARIOS.clear()
    _SCENARIOS.update(before)


def test_builtin_entries_are_registered():
    names = set(all_scenarios())
    assert {"atm.staggered", "atm.onoff", "atm.rtt", "atm.parking",
            "atm.transient", "atm.background", "atm.weighted",
            "tcp.rtt", "tcp.parking", "tcp.many", "tcp.vegas",
            "tcp.mixed", "tcp.twoway", "fluid.staggered", "fluid.onoff",
            "fluid.parking", "fluid.many", "fluid.hybrid_e01",
            "fuzz.generic"} <= names


def test_every_builtin_entry_is_importable_and_kinded():
    import importlib
    for name, entry in all_scenarios().items():
        assert entry.kind in ("atm", "tcp", "fluid")
        # the fuzz namespace resolves config-driven specs onto the ATM
        # substrate; every other prefix states its tier directly
        prefix = name.split(".", 1)[0]
        assert entry.kind == {"fuzz": "atm"}.get(prefix, prefix)
        module = importlib.import_module(entry.fn.__module__)
        assert getattr(module, entry.fn.__name__) is entry.fn


def test_seed_detection():
    assert get_scenario("atm.onoff").takes_seed  # on/off draws periods
    assert not get_scenario("atm.staggered").takes_seed


def test_unknown_scenario_lists_known_names():
    with pytest.raises(KeyError, match="atm.staggered"):
        get_scenario("atm.nope")


def test_register_rejects_lambdas(scratch_registry):
    with pytest.raises(TypeError, match="module-level"):
        register_scenario("x.lambda", lambda: None,
                          kind="atm")
    with pytest.raises(TypeError, match="param_deps"):
        register_scenario("x.param_deps", module_level_entry, kind="atm",
                          param_deps=lambda params: ())


def test_register_rejects_closures(scratch_registry):
    def closure():
        return None

    with pytest.raises(TypeError, match="module-level"):
        register_scenario("x.closure", closure,
                          kind="atm")


def test_register_rejects_unimportable_callables(scratch_registry):
    # a partial has no qualname pointing at a module-level binding
    from functools import partial
    with pytest.raises(TypeError):
        register_scenario("x.partial",
                          partial(module_level_entry, 0.2), kind="atm")


def test_register_rejects_bad_kind(scratch_registry):
    with pytest.raises(ValueError, match="kind"):
        register_scenario("x.kind", module_level_entry, kind="router")


def test_register_accepts_fluid_kind(scratch_registry):
    entry = register_scenario("x.fluid", module_level_entry,
                              kind="fluid")
    assert get_scenario("x.fluid") is entry
    assert entry.kind == "fluid"


def test_register_accepts_module_level_fn(scratch_registry):
    entry = register_scenario("x.ok", module_level_entry, kind="atm",
                              param_deps=module_level_param_deps)
    assert get_scenario("x.ok") is entry
    assert not entry.takes_seed
