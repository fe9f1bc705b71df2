"""Scenario registry: named, importable task entry points.

The executor resolves a :class:`repro.exec.spec.TaskSpec` to runnable
code by *name*, inside the worker process.  That only works when every
registered entry point is a module-level importable callable — a worker
must be able to reach the same object through
``sys.modules[fn.__module__].<fn.__name__>``.  :func:`register_scenario`
enforces that at registration time, so a lambda or closure can never
sneak into the registry and break spec shipping.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from inspect import signature
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario entry point."""

    #: Registry name, e.g. ``"atm.staggered"``.
    name: str
    #: Module-level builder; called with the spec's params (plus ``seed``
    #: when the signature accepts one) and returns a run handle
    #: (``AtmRun``, ``TcpRun`` or ``FluidRun``).
    fn: Callable[..., Any]
    #: ``"atm"``, ``"tcp"``, or ``"fluid"`` — selects the standard
    #: metric set (fluid runs share the ATM rate/fairness/queue set).
    kind: str
    #: Root modules whose transitive ``repro``-internal import closure
    #: feeds the task fingerprint (see :mod:`repro.exec.fingerprint`).
    deps: tuple[str, ...] = ()
    #: Optional module-level hook mapping a spec's params to *extra*
    #: fingerprint root modules (e.g. the chosen algorithm's module).
    param_deps: Callable[[dict], tuple[str, ...]] | None = None
    #: Whether ``fn`` accepts a ``seed`` keyword (precomputed).
    takes_seed: bool = False

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` unless ``params`` can reach ``fn``.

        Every key must be one of ``fn``'s keywords — except ``tracer``,
        which carries a live object no spec can — and the algorithm or
        policy a key names must be known to :attr:`param_deps`, whose
        lookup raises with the known names.  A spec that fails here
        would otherwise fail inside the worker, deep in a builder.
        """
        accepted = set(signature(self.fn).parameters) - {"tracer"}
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise ValueError(
                f"{self.name} takes no {', '.join(unknown)}; its keys: "
                f"{', '.join(sorted(accepted))}")
        if self.param_deps is not None:
            self.param_deps(dict(params))


_SCENARIOS: dict[str, ScenarioEntry] = {}


def _check_module_level(fn: Callable[..., Any], what: str) -> None:
    """Reject callables a worker could not re-import by name."""
    if not callable(fn):
        raise TypeError(f"{what} must be callable, got {fn!r}")
    qualname = getattr(fn, "__qualname__", "")
    module = getattr(fn, "__module__", None)
    name = getattr(fn, "__name__", "")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise TypeError(
            f"{what} must be a module-level callable (no lambdas or "
            f"closures); got {qualname!r} — it cannot be resolved by "
            "name inside a worker process")
    resolved = getattr(sys.modules.get(module or ""), name, None)
    if resolved is not fn:
        raise TypeError(
            f"{what} is not importable as {module}.{name}; register the "
            "module-level callable itself")


def register_scenario(name: str, fn: Callable[..., Any], *, kind: str,
                      deps: tuple[str, ...] = (),
                      param_deps: Callable[[dict], tuple[str, ...]]
                      | None = None) -> ScenarioEntry:
    """Register ``fn`` as the entry point for scenario ``name``."""
    if kind not in ("atm", "tcp", "fluid"):
        raise ValueError(
            f"kind must be 'atm', 'tcp', or 'fluid', got {kind!r}")
    _check_module_level(fn, f"scenario {name!r} entry point")
    if param_deps is not None:
        _check_module_level(param_deps, f"scenario {name!r} param_deps")
    takes_seed = "seed" in signature(fn).parameters
    entry = ScenarioEntry(name=name, fn=fn, kind=kind, deps=tuple(deps),
                          param_deps=param_deps, takes_seed=takes_seed)
    _SCENARIOS[name] = entry
    return entry


def get_scenario(name: str) -> ScenarioEntry:
    _load_builtin_entries()
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") \
            from None


def all_scenarios() -> dict[str, ScenarioEntry]:
    """Name -> entry for every registered scenario (sorted by name)."""
    _load_builtin_entries()
    return {name: _SCENARIOS[name] for name in sorted(_SCENARIOS)}


def _load_builtin_entries() -> None:
    # Imported lazily to avoid a cycle (entries imports register_scenario
    # from here).
    from repro.exec import entries  # noqa: F401
