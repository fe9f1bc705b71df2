"""Greedy config minimization for failing fuzz tasks.

Classic delta-debugging adapted to scenario configs: apply the largest
cuts first (drop half the sessions, halve the horizon), fall back to
finer simplifications (drop one session, remove a schedule, zero the
loss rate, strip a jittered gain), keep a candidate only when the
original failure still reproduces, and loop to a fixpoint.

Two properties make this safe and fast here:

* **determinism** — a candidate is judged by re-running it through the
  same worker with the *same* per-task seed; because every stochastic
  component draws from its own name-addressed
  :class:`~repro.sim.rng.RngStreams` stream, dropping one session or
  one VBR stream never perturbs the sample path of the survivors, so
  failures shrink stably instead of flickering;
* **cache reuse** — judging goes through
  :func:`repro.exec.run_tasks` with the campaign's result cache, so
  re-visiting a candidate (common near the fixpoint) costs a lookup.

Reproduction is deliberately looser than bit-equality: the candidate
must land in the same classification (violated / crash / timeout) and,
for violations, still fail the *primary* (first) violated check of the
original.  Requiring the identical check set would reject shrinks that
merely stop a secondary symptom.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro.exec.pool import run_tasks
from repro.exec.spec import TaskSpec, canonical_json
from repro.fuzz.harness import CLASS_PASS, classify_result

#: Horizons are never shrunk below this (seconds) — shorter runs judge
#: nothing (the steady window collapses).
MIN_DURATION = 0.05


def config_size(config: Mapping[str, Any]) -> int:
    """Size metric minimized: canonical-JSON length."""
    return len(canonical_json(dict(config)))


def _prune_topology(config: dict[str, Any]) -> dict[str, Any]:
    """Drop switches/trunks no remaining route crosses."""
    used: set[str] = set()
    hops: set[tuple[str, str]] = set()
    for stream in ("sessions", "vbr", "cbr"):
        for entry in config.get(stream) or ():
            route = list(entry["route"])
            used.update(route)
            for a, b in zip(route, route[1:]):
                hops.add((a, b))
                hops.add((b, a))
    config["switches"] = [s for s in config["switches"] if s in used]
    config["trunks"] = [t for t in config["trunks"]
                        if (t["a"], t["b"]) in hops]
    bottleneck = config.get("bottleneck")
    if bottleneck and tuple(bottleneck) not in hops:
        del config["bottleneck"]
    return config


def _without(mapping: Mapping[str, Any], key: str) -> dict[str, Any]:
    return {k: v for k, v in mapping.items() if k != key}


def _candidates(config: Mapping[str, Any]
                ) -> Iterator[tuple[str, dict[str, Any]]]:
    """Shrink attempts, biggest cuts first.  Each yields a full config."""
    sessions = list(config["sessions"])

    def with_sessions(kept: list[dict]) -> dict[str, Any]:
        return _prune_topology({**config, "sessions": kept})

    if len(sessions) > 1:
        half = len(sessions) // 2
        yield "drop-first-half-sessions", with_sessions(sessions[half:])
        yield "drop-second-half-sessions", with_sessions(sessions[:half])
        for i in range(len(sessions)):
            yield (f"drop-session-{sessions[i]['vc']}",
                   with_sessions(sessions[:i] + sessions[i + 1:]))

    duration = float(config.get("duration", 0.25))
    if duration / 2 >= MIN_DURATION:
        yield "halve-duration", {**config,
                                 "duration": round(duration / 2, 4)}

    for stream in ("vbr", "cbr"):
        entries = list(config.get(stream) or ())
        if entries:
            yield f"drop-{stream}", _prune_topology(
                _without(config, stream))
            for i in range(1, len(entries)):
                yield (f"drop-{stream}-{entries[i]['vc']}",
                       _prune_topology({**config, stream:
                                        entries[:i] + entries[i + 1:]}))

    if float(config.get("rm_loss", 0.0)) > 0.0:
        yield "zero-rm-loss", _without(config, "rm_loss")

    for i, session in enumerate(sessions):
        vc = session["vc"]
        for key in ("onoff", "params", "start", "stop", "access_delay"):
            if key in session:
                simplified = sessions.copy()
                simplified[i] = _without(session, key)
                yield (f"strip-{key}-{vc}",
                       {**config, "sessions": simplified})

    for i, trunk in enumerate(config["trunks"]):
        for key in ("rate", "delay", "buffer_cells"):
            if key in trunk:
                trunks = list(config["trunks"])
                trunks[i] = _without(trunk, key)
                yield (f"strip-trunk-{key}-{trunk['a']}-{trunk['b']}",
                       {**config, "trunks": trunks})

    knobs = dict(config.get("algorithm_params") or {})
    for key in sorted(knobs):
        pruned = _without(knobs, key)
        yield (f"strip-gain-{key}",
               {**_without(config, "algorithm_params"),
                **({"algorithm_params": pruned} if pruned else {})})


def _signature(judgment: Mapping[str, Any]) -> tuple[str, str | None]:
    """(classification, primary violated check) to reproduce."""
    checks = judgment.get("checks") or []
    return judgment["classification"], (checks[0] if checks else None)


def _matches(signature: tuple[str, str | None],
             judgment: Mapping[str, Any]) -> bool:
    classification, primary = signature
    if judgment["classification"] != classification:
        return False
    return primary is None or primary in (judgment.get("checks") or [])


def shrink(spec: TaskSpec, *, cache=None, timeout: float | None = None,
           judge: Callable[[TaskSpec], dict[str, Any]] | None = None,
           ) -> dict[str, Any]:
    """Minimize a failing inline-config spec while it keeps failing.

    Returns a report with the minimized ``spec`` (same scenario, same
    seed, ``-min`` suffixed task id), the reproduced failure
    ``signature``, the accepted shrink ``steps``, and the size ratio.
    ``judge`` overrides how candidates are evaluated (tests inject
    synthetic failure predicates); the default runs the spec through
    :func:`repro.exec.run_tasks` and
    :func:`repro.fuzz.harness.classify_result`.
    """
    if spec.config is None:
        raise ValueError(
            f"spec {spec.task_id!r} has no inline config to shrink")

    if judge is None:
        def judge(candidate: TaskSpec) -> dict[str, Any]:
            results = run_tasks([candidate], jobs=1, cache=cache,
                                timeout=timeout, retries=0)
            return classify_result(results[0])

    def respin(config: Mapping[str, Any], label: str) -> TaskSpec:
        # probes are named after sessions (``s0.acr``) and ports
        # (``S1->S2.queue``); a cut that removes their owner must drop
        # them too or the worker rejects the spec
        owners = {s["vc"] for s in config.get("sessions", ())}
        for trunk in config.get("trunks", ()):
            owners.add(f"{trunk['a']}->{trunk['b']}")
            owners.add(f"{trunk['b']}->{trunk['a']}")
        probes = tuple(p for p in spec.probes
                       if p.split(".", 1)[0] in owners)
        return TaskSpec(task_id=label, scenario=spec.scenario,
                        params=spec.params, seed=spec.seed,
                        probes=probes, config=config)

    original = judge(spec)
    if original["classification"] == CLASS_PASS:
        raise ValueError(
            f"spec {spec.task_id!r} passes; nothing to shrink")
    signature = _signature(original)

    current = dict(spec.config)
    steps: list[str] = []
    attempts = 0
    improved = True
    while improved:
        improved = False
        for label, candidate in _candidates(current):
            if config_size(candidate) >= config_size(current):
                continue
            attempts += 1
            trial = respin(candidate,
                           f"{spec.task_id}-shrink{attempts:03d}")
            if _matches(signature, judge(trial)):
                current = dict(candidate)
                steps.append(label)
                improved = True
                break  # restart passes against the smaller config

    minimized = respin(current, f"{spec.task_id}-min")
    return {
        "original_task_id": spec.task_id,
        "spec": minimized,
        "signature": {"classification": signature[0],
                      "check": signature[1]},
        "steps": steps,
        "attempts": attempts,
        "size_before": config_size(spec.config),
        "size_after": config_size(current),
    }
