"""Seeded scenario generation.

One integer seed determines a whole batch: each task draws from its own
:class:`repro.sim.rng.RngStreams` stream (``task.<i>``), so task *i* is
the same whatever the budget, and its :class:`~repro.exec.spec.TaskSpec`
carries the full scenario as an inline config plus a per-task simulation
seed derived with :func:`repro.exec.spec.derive_seed`.  Nothing here
touches module-level randomness or the clock (pinned by
``tests/fuzz/test_imports.py``): every draw goes through the injected
``Random`` handle.

The sampled space, scoped to what the single-path packet substrate
supports:

* **topology family** — two-switch dumbbell, chain (with local
  one-hop sessions), parking lot (one long session + per-hop cross
  traffic), or an asymmetric random tree with tree-path routes;
* **sessions** — 2..6, with staggered starts, spread access delays
  (the RTT knob), optional weight/MCR overrides, optional exponential
  on/off schedules;
* **cross-traffic** — optional VBR (on/off guaranteed) or CBR streams
  over one trunk;
* **impairment** — optional RM-cell loss on the backward access links;
* **algorithm** — phantom (majority of draws, so the oracle-closeness
  property gets exercise) or one of the baselines, with gains jittered
  around their paper defaults.
"""

from __future__ import annotations

import math
from random import Random
from typing import Any, Mapping

from repro.exec.spec import TaskSpec, derive_seed
from repro.sim import RngStreams

#: Scenario entry every generated spec resolves to.
SCENARIO = "fuzz.generic"

#: Algorithm draw weights; phantom dominates so fairness properties
#: (which only phantom's equilibrium argument covers) see most configs.
_ALGORITHMS = (("phantom", 0.45), ("phantom-binary", 0.10),
               ("erica", 0.15), ("eprca", 0.15), ("capc", 0.15))

#: Trunk/link rates sampled (Mb/s); all high enough that the small MCR
#: guarantees below can never oversubscribe a link.
_LINK_RATES = (100.0, 150.0)


def _choice_weighted(rng: Random, table) -> str:
    roll = rng.random()
    acc = 0.0
    for name, weight in table:
        acc += weight
        if roll < acc:
            return name
    return table[-1][0]


def _loguniform(rng: Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _algorithm_params(rng: Random, algorithm: str,
                      calm: bool) -> dict[str, Any]:
    """Jittered gains around each algorithm's paper defaults."""
    params: dict[str, Any] = {}
    if algorithm == "phantom-binary":
        # binary feedback is kept inside its stable envelope: CI/NI
        # marking cannot clamp the sawtooth the way ER stamping does,
        # and aggressive factors with slow intervals make the queue
        # ratchet without bound (triaged as genuine scheme behaviour,
        # pinned by the binary-queue-ratchet corpus entry — the
        # explicit-rate law converges under the very same parameters)
        params["utilization_factor"] = rng.choice([2.0, 3.0, 5.0])
        if rng.random() < 0.5:
            params["interval"] = rng.choice([5e-4, 1e-3])
    elif algorithm == "phantom":
        params["utilization_factor"] = rng.choice([2.0, 3.0, 5.0, 8.0,
                                                   10.0])
        if rng.random() < 0.5:
            params["interval"] = rng.choice([5e-4, 1e-3, 2e-3])
        if not calm and rng.random() < 0.25:
            # off-default filter gains; takes the config out of the
            # oracle-eligible set, still subject to the hard invariants
            params["alpha_inc"] = rng.choice([1 / 32, 1 / 16, 1 / 8])
            params["alpha_dec"] = rng.choice([1 / 8, 1 / 4, 1 / 2])
    elif algorithm == "erica":
        params["target_utilization"] = rng.choice([0.85, 0.9, 0.95])
        if rng.random() < 0.5:
            params["interval"] = rng.choice([5e-4, 1e-3, 2e-3])
    elif algorithm == "eprca":
        params["erf"] = rng.choice([0.875, 0.9375])
        params["mrf"] = rng.choice([0.125, 0.25])
        if rng.random() < 0.5:
            params["qt"] = rng.choice([50, 100, 200])
    elif algorithm == "capc":
        params["rup"] = rng.choice([0.05, 0.1, 0.15])
        params["rdn"] = rng.choice([0.4, 0.8])
        params["target_utilization"] = rng.choice([0.85, 0.9, 0.95])
    return params


def _session_entry(rng: Random, vc: str, route: list[str],
                   duration: float, calm: bool) -> dict[str, Any]:
    entry: dict[str, Any] = {"vc": vc, "route": route}
    if rng.random() < 0.5:
        entry["start"] = round(rng.uniform(
            0.0, (0.2 if calm else 0.3) * duration), 4)
    # access delay is the per-session RTT/feedback-delay knob; calm
    # draws stay under the ~1 ms feedback budget the ε-band holds for
    high = 8e-4 if calm else 2e-3
    entry["access_delay"] = round(_loguniform(rng, 1e-5, high), 7)
    params: dict[str, Any] = {}
    if rng.random() < 0.2:
        params["weight"] = rng.choice([2.0, 4.0])
    if rng.random() < 0.15:
        params["mcr"] = rng.choice([2.0, 5.0])
    if params:
        entry["params"] = params
    if not calm and rng.random() < 0.3:
        entry["onoff"] = {"on": round(rng.uniform(0.01, 0.04), 4),
                          "off": round(rng.uniform(0.01, 0.04), 4)}
    return entry


def _chain_topology(rng: Random) -> tuple[list[str], list[dict],
                                          list[list[str]]]:
    """Switch line; candidate routes mix end-to-end and local hops."""
    n = rng.randint(2, 5)
    switches = [f"S{i}" for i in range(1, n + 1)]
    trunks: list[dict] = []
    for a, b in zip(switches, switches[1:]):
        trunk: dict[str, Any] = {"a": a, "b": b}
        if rng.random() < 0.4:
            trunk["rate"] = rng.choice(list(_LINK_RATES))
        if rng.random() < 0.3:
            trunk["delay"] = round(_loguniform(rng, 1e-5, 1e-3), 7)
        trunks.append(trunk)
    candidates = [list(switches)]
    for i in range(n - 1):
        candidates.append(switches[i:i + 2])
    return switches, trunks, candidates


def _parking_topology(rng: Random) -> tuple[list[str], list[dict],
                                            list[list[str]]]:
    """One end-to-end path plus a crossing route per hop."""
    hops = rng.randint(2, 4)
    switches = [f"S{i}" for i in range(1, hops + 2)]
    trunks = [{"a": a, "b": b} for a, b in zip(switches, switches[1:])]
    candidates = [list(switches)]
    candidates.extend(switches[i:i + 2] for i in range(hops))
    return switches, trunks, candidates


def _tree_topology(rng: Random) -> tuple[list[str], list[dict],
                                         list[list[str]]]:
    """Random tree (asymmetric mesh with unique single paths)."""
    n = rng.randint(3, 5)
    switches = [f"S{i}" for i in range(1, n + 1)]
    parent = {i: rng.randint(0, i - 1) for i in range(1, n)}
    trunks: list[dict] = []
    for child, par in sorted(parent.items()):
        trunk: dict[str, Any] = {"a": switches[par], "b": switches[child]}
        if rng.random() < 0.5:
            trunk["rate"] = rng.choice(list(_LINK_RATES))
        trunks.append(trunk)

    def path(i: int, j: int) -> list[str]:
        up_i, up_j = [i], [j]
        while up_i[-1] != 0:
            up_i.append(parent[up_i[-1]])
        while up_j[-1] != 0:
            up_j.append(parent[up_j[-1]])
        common = {*up_i} & {*up_j}
        meet = next(node for node in up_i if node in common)
        head = up_i[:up_i.index(meet) + 1]
        tail = up_j[:up_j.index(meet)]
        return [switches[k] for k in head + tail[::-1]]

    candidates = []
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        route = path(i, j)
        if len(route) >= 2:
            candidates.append(route)
    return switches, trunks, candidates


_FAMILIES = (("dumbbell", 0.3), ("chain", 0.25), ("parking", 0.25),
             ("tree", 0.2))


def generate_config(rng: Random) -> dict[str, Any]:
    """Draw one scenario config from an injected ``Random`` handle.

    Roughly a third of draws are **calm**: directed into the
    oracle-eligible region (paper-filter phantom, steady greedy demand,
    sub-millisecond feedback delays) so every batch exercises the
    fair-share closeness property, not just the hard invariants.  The
    rest of the space stays wild — baselines, jittered gains, bursts,
    background traffic, RM loss.
    """
    calm = rng.random() < 0.35
    family = _choice_weighted(rng, _FAMILIES)
    if family == "dumbbell":
        switches = ["S1", "S2"]
        trunks: list[dict] = [{"a": "S1", "b": "S2"}]
        candidates = [["S1", "S2"]]
    elif family == "chain":
        switches, trunks, candidates = _chain_topology(rng)
    elif family == "parking":
        switches, trunks, candidates = _parking_topology(rng)
    else:
        switches, trunks, candidates = _tree_topology(rng)

    algorithm = ("phantom" if calm
                 else _choice_weighted(rng, _ALGORITHMS))
    if algorithm == "phantom-binary":
        # binary feedback has no ER clamp, so its AIR sawtooth admits
        # no ER-style transient queue bound on infinite buffers (the
        # binary-queue-ratchet corpus entry pins that behaviour); fuzz
        # it the way TM 4.0 deploys it — against finite port buffers,
        # where the buffer itself is the invariant and drops are
        # accounted by the conservation check
        buffer_cells = rng.choice([1000, 4000])
        for trunk in trunks:
            trunk["buffer_cells"] = buffer_cells

    duration = round(rng.uniform(0.2 if calm else 0.15, 0.4), 3)
    n_sessions = rng.randint(2, 6)
    sessions = []
    for i in range(n_sessions):
        route = list(rng.choice(candidates))
        if rng.random() < 0.5:
            route.reverse()
        sessions.append(_session_entry(rng, f"s{i}", route, duration,
                                       calm))

    config: dict[str, Any] = {
        "family": family,
        "switches": switches,
        "trunks": trunks,
        "link_rate": rng.choice(list(_LINK_RATES)),
        "sessions": sessions,
        "algorithm": algorithm,
        "algorithm_params": _algorithm_params(rng, algorithm, calm),
        "duration": duration,
    }
    if calm:
        return config
    if rng.random() < 0.25:
        span = rng.choice(candidates)
        config["vbr"] = [{
            "vc": "vbr0", "route": list(span),
            "peak": rng.choice([10.0, 25.0, 40.0]),
            "mean_on": round(rng.uniform(0.005, 0.03), 4),
            "mean_off": round(rng.uniform(0.005, 0.03), 4),
        }]
    elif rng.random() < 0.2:
        span = rng.choice(candidates)
        config["cbr"] = [{
            "vc": "cbr0", "route": list(span),
            "rate": rng.choice([10.0, 30.0, 60.0]),
            "start": round(rng.uniform(0.0, 0.4) * duration, 4),
            "stop": round(rng.uniform(0.6, 0.9) * duration, 4),
        }]
    if rng.random() < 0.2:
        config["rm_loss"] = rng.choice([0.001, 0.005, 0.02, 0.05])
    return config


def generate_batch(seed: int, budget: int) -> list[TaskSpec]:
    """``budget`` self-describing specs for root ``seed``.

    Task *i* draws only from stream ``task.<i>``, so batches of
    different budgets share a prefix and a corpus entry's origin
    (``seed`` + index) pins down its config forever.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    streams = RngStreams(seed)
    specs = []
    for i in range(budget):
        config = generate_config(streams.stream(f"task.{i:04d}"))
        task_id = f"fuzz-{seed}-{i:04d}"
        specs.append(TaskSpec(task_id=task_id, scenario=SCENARIO,
                              seed=derive_seed(seed, task_id),
                              probes=session_probes(config),
                              config=config))
    return specs


def session_probes(config: Mapping[str, Any]) -> tuple[str, ...]:
    """The ACR series the property harness judges settledness and
    oracle closeness from — one per ABR session."""
    return tuple(f"{session['vc']}.acr"
                 for session in config.get("sessions", ()))
