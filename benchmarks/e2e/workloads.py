"""The six seeded workloads of the end-to-end benchmark.

``run.py`` runs every workload in a fresh process of this module::

    python3 benchmarks/e2e/workloads.py NAME --seed N --seconds S \\
        --trace 0|1 [--quick] --workdir DIR --result FILE [--trace-file F]

The process imports the workload's modules (timed: ``startup.import_s``),
sets the workload up ``SETUP_REPEATS`` times (the median is ``setup_s``;
every set-up ends with a warm-up prefix of the workload's own work),
measures for ``--seconds``, and with ``--trace 1`` measures once more,
for a third as long, under a profiler for the per-layer split.  It writes everything it saw to
``--result`` as JSON; ``run.py`` prints and gates it.

Each workload reports work in its own unit, so the generic metrics
read naturally on all six: ``wall_per_unit_s`` is the median seconds one
unit of work took, ``units_per_s`` the units completed per second spent
on them.

Each CPU of a shared host can switch between speeds about 1.8x apart
every few seconds.  So the process pins itself to one CPU, times a fixed
calibration slice between units (:class:`Speed`), and the gated time
metrics, ``time_per_unit_s`` and ``setup_s``, are the wall times scaled,
each by the slices timed nearest it, to the speed at which that slice
takes its reference time.  A change to the program moves them; a change
in the host's speed does not.  The slice is shaped like the workload's
own work, since kinds of work slow down by different amounts when the
host does: interpreter work on small objects for the simulations,
compiling source for the suite replays.

The seed is the only source of variation: a workload's inputs are a pure
function of it (:meth:`Workload.inputs`), and the program only receives
those generated inputs.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import importlib
import json
import marshal
import math
import os
import pstats
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from layers import FileLayers, Spans, attribute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``fair_share_gap`` above this fails the run (the fuzz harness' ε).
GAP_LIMIT = 0.05
#: ``jain_index`` below this fails the run: the paper's Section-4 claim
#: is that Selective Discard shares a bottleneck fairly across RTTs.
JAIN_FLOOR = 0.9
#: Wall budget of one fuzz task, and of one suite or serve call.
CALL_TIMEOUT_S = 120.0
#: The profiled pass measures for this share of ``--seconds``: the layer
#: shares settle well before, and a traced run stays short.
TRACED_SHARE = 1 / 3


def digest(value: Any) -> str:
    """sha256 of a value's canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def program_env() -> dict[str, str]:
    """Environment for program subprocesses: this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    Each CPU of a shared host runs at its own speed, switching within
    seconds; a process the scheduler moves between them, or a pool
    spread over both, runs at a mix no calibration slice can match.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: int):
        self.key = key
        self.value = value


def calibration_slice() -> float:
    """Seconds a fixed slice of interpreter work takes, shaped like the
    simulators' hot loop: small objects, a heap, float arithmetic."""
    # no collection inside the slice: its cost grows with whatever heap
    # the workload holds, which is not the CPU's speed
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        total = 0.0
        for i in range(6000):
            item = _Item(i * 0.37 % 101.0, i)
            heapq.heappush(heap, (item.key, i, item))
            if len(heap) > 64:
                key, _, item = heapq.heappop(heap)
                total += key * 0.5 + item.value
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


#: The source :func:`compile_slice` compiles.  Changing it changes the
#: slice's reference time.
_COMPILE_SOURCE = "\n".join(
    f"class C{i}:\n"
    f"    '''Doc {i}.'''\n"
    f"    def run(self, a, b=({i}, 'x{i}'), *args, **kw):\n"
    f"        for k, v in enumerate(args):\n"
    f"            if v > {i} and k % 3:\n"
    f"                a = [b, {{'k': a, 'v': v * {i}.5}}, kw.get('w')]\n"
    f"        return f'{{a!r}}-{i}' if a else None\n"
    for i in range(60))


def compile_slice() -> float:
    """Seconds compiling a fixed source: parse, compile and a marshal
    round trip, shaped like the import and source-fingerprint work of a
    suite replay."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        code = compile(_COMPILE_SOURCE, "<calibration>", "exec")
        marshal.loads(marshal.dumps(code))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """This CPU's speed, sampled between units of work.

    The host's speed can change within a run, so each measured interval
    is scaled by the slices timed during it or around it, not by the
    run's median.
    """

    #: Slices timed this close to a measured interval scale it.
    NEAR_S = 0.25

    def __init__(self, timer: Callable[[], float], reference_s: float):
        #: The calibration slice, and the seconds it takes at the
        #: reference speed (about one uncontended core of a 2.1 GHz Xeon).
        self.timer = timer
        self.reference_s = reference_s
        #: (``time.monotonic()`` when timed, slice seconds)
        self.slices: list[tuple[float, float]] = []

    def sample(self, every: float = 0.0, slices: int = 1) -> None:
        """Time ``slices`` calibration slices, unless the last one was
        timed under ``every`` seconds ago."""
        if self.slices and time.monotonic() - self.slices[-1][0] < every:
            return
        for _ in range(slices):
            took = self.timer()
            self.slices.append((time.monotonic(), took))

    def scaled(self, values: list[float],
               spans: list[tuple[float, float]]) -> list[float]:
        """Each value, a wall time measured over the matching
        ``time.monotonic()`` span, in seconds at the reference speed."""
        return [value * self.reference_s / self._near(start, end)
                for value, (start, end) in zip(values, spans)]

    def _near(self, start: float, end: float) -> float:
        near = [took for t, took in self.slices
                if start - self.NEAR_S <= t <= end + self.NEAR_S]
        if not near:
            middle = (start + end) / 2
            closest = sorted(self.slices, key=lambda s: abs(s[0] - middle))
            near = [took for _, took in closest[:3]]
        return statistics.median(near)

    @property
    def factor(self) -> float:
        """Reference speed over the run's median speed."""
        return self.reference_s / statistics.median(
            t for _, t in self.slices)


@dataclass
class Window:
    """What one measurement phase saw."""

    #: Seconds one unit of work took, one value per sample, and the
    #: ``time.monotonic()`` span each was measured over.
    samples: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)
    #: Units of work completed, and the seconds spent completing them.
    work: float = 0.0
    busy: float = 0.0
    #: Operations tried and failed (runs, scenarios, tasks, requests).
    attempted: int = 0
    failed: int = 0
    #: Times the workload's input was processed (runs, scenarios,
    #: replays, offer windows): the divisor of per-input counts.
    ops: int = 0


@dataclass
class Traced:
    """The profiled phase: its window and where its time went."""

    window: Window
    #: Self seconds per layer.
    layers: dict[str, float]
    #: Seconds the layers should add up to.
    wall: float
    stats: dict[tuple, tuple] = field(default_factory=dict)


class Workload:
    """One seeded input set, and how to set it up, measure and check it."""

    name = ""
    #: What one unit of ``time_per_unit_s`` and ``units_per_s`` is.
    unit = ""
    #: Modules imported, and timed, before the first set-up.
    modules: tuple[str, ...] = ()
    #: The calibration slice and its seconds at the reference speed.
    calibration: tuple[Callable[[], float], float] = (
        calibration_slice, 0.005)

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.files = FileLayers(SRC / "repro", HERE)
        self.speed = Speed(*self.calibration)
        #: Failed correctness gates, as messages.
        self.problems: list[str] = []
        #: Deterministic outputs of the first unit of work: compared
        #: with every later unit and with the committed expected file.
        self.outputs: dict[str, Any] | None = None
        #: Per-layer counters, per processing of the input.
        self.counts: dict[str, float] = {}
        #: Workload-specific metrics: name -> (value, unit, samples).
        self.extra: dict[str, tuple[float, str, int]] = {}

    def inputs(self) -> dict[str, Any]:
        """The generated inputs (JSON-able; a pure function of the seed)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Prepare to measure; repeatable, each call replaces the last."""
        raise NotImplementedError

    def measure(self, seconds: float, spans: Spans) -> Window:
        raise NotImplementedError

    def aliases(self, window: Window) -> dict[str, tuple[float, str, int]]:
        """The generic metrics under their workload-specific names."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident set of the processes that did the measured work:
        this one, and any child it waited for."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, children) / 1024.0   # Linux reports kilobytes

    def traced(self, seconds: float, spans: Spans) -> Traced:
        """Measure again under ``cProfile``, grouped by layer."""
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        try:
            window = self.measure(seconds, spans)
        finally:
            profile.disable()
        wall = time.perf_counter() - start
        stats = pstats.Stats(profile).stats
        return Traced(window, attribute(stats, self.files), wall, stats)

    def close(self) -> None:
        """Stop everything the workload started."""

    def expect(self, ok: bool, message: str) -> bool:
        if not ok and message not in self.problems:
            self.problems.append(message)
        return ok


# ----------------------------------------------------------------------
# simulations run to a fixed horizon: atm_parking, tcp_discard, fluid
# ----------------------------------------------------------------------
class _Simulation(Workload):
    """A simulation run to a fixed horizon in equal segments.

    One unit of work is one simulated second, and every segment is one
    sample of host seconds per simulated second.  Each run rebuilds the
    network from the same inputs, so every run must reproduce the first
    run's outputs bit for bit (profiled runs included).
    """

    unit = "simulated second"
    horizon = 1.0
    steps = 1
    #: Simulated seconds of the warm-up prefix that ends each set-up.
    warmup = 0.0

    def build(self):
        """The run handle, built but not run."""
        raise NotImplementedError

    def summarize(self, run) -> dict[str, Any]:
        from repro.perf.golden import trace_from_run

        return trace_from_run(self.name, 1.0, run)

    def judge(self, run, outputs: dict[str, Any]) -> None:
        """Workload gates on the first run."""

    def count(self, run) -> dict[str, float]:
        return {"sim.engine.events": run.net.sim.executed_events}

    def setup(self) -> None:
        self.build().net.run(until=self.warmup)

    def measure(self, seconds: float, spans: Spans) -> Window:
        window = Window()
        segment = self.horizon / self.steps
        deadline = time.perf_counter() + seconds
        while window.ops == 0 or time.perf_counter() < deadline:
            with spans.span("run"):
                with spans.span("build"):
                    run = self.build()
                for k in range(1, self.steps + 1):
                    with spans.span("segment") as span:
                        start = time.perf_counter()
                        run.net.run(until=self.horizon * k / self.steps)
                        elapsed = time.perf_counter() - start
                    window.samples.append(elapsed / segment)
                    window.spans.append((span["start"], span["end"]))
                    window.busy += elapsed
                    self.speed.sample()
                window.work += self.horizon
                window.ops += 1
                window.attempted += 1
                with spans.span("check"):
                    if not self.record(run):
                        window.failed += 1
            # the network is cyclic garbage: free it before the next run
            # so the peak resident set is one run's, not a GC lottery
            del run
            gc.collect()
        return window

    def record(self, run) -> bool:
        outputs = self.summarize(run)
        if self.outputs is None:
            self.outputs = outputs
            self.counts = self.count(run)
            before = len(self.problems)
            self.judge(run, outputs)
            self._first_ok = len(self.problems) == before
            return self._first_ok
        if outputs != self.outputs:
            self.expect(False, "a run's outputs differ from the first run's")
            return False
        return self._first_ok

    def aliases(self, window: Window) -> dict[str, tuple[float, str, int]]:
        return {"host_s_per_sim_s": (statistics.median(window.samples),
                                     "s/s", len(window.samples))}


#: Trunk rates of the parking lot's hops (Mb/s), shuffled per seed.  A
#: fixed multiset keeps the cells per simulated second, and so the cost
#: of a simulated second, the same for every seed; the seed moves the
#: bottleneck and the feedback delays.
PARKING_RATES = (100.0, 120.0, 150.0, 150.0)
#: Longest access delay drawn (s).  Phantom hunts instead of settling
#: once every session's access delay reaches about 0.35 ms (a 30% gap
#: from the fair share after 0.25 s), although the fuzz harness' gate
#: admits up to 1 ms; this keeps every draw well inside the settling
#: region, so the gap can gate every run.
PARKING_MAX_DELAY = 2e-4


def parking_config(seed: int, horizon: float) -> dict[str, Any]:
    """The ``atm_parking`` input: a config for
    :func:`repro.scenarios.generic.build_atm`.

    A 4-hop parking lot: one long greedy session over every hop and two
    greedy cross sessions per hop, access delays log-uniform in
    [1e-5, :data:`PARKING_MAX_DELAY`] s, Phantom at its paper defaults.
    The access links run at 150 Mb/s, no slower than any trunk, so
    sessions are trunk-limited and the phantom-adjusted max-min share
    applies.
    """
    from repro.sim import RngStreams

    rng = RngStreams(seed).stream("e2e.atm_parking")
    switches = [f"S{i}" for i in range(1, len(PARKING_RATES) + 2)]
    rates = list(PARKING_RATES)
    rng.shuffle(rates)

    def access_delay() -> float:
        return round(math.exp(rng.uniform(math.log(1e-5),
                                          math.log(PARKING_MAX_DELAY))), 7)

    sessions = [{"vc": "long", "route": switches,
                 "access_delay": access_delay()}]
    for hop in range(len(PARKING_RATES)):
        for k in range(2):
            sessions.append({"vc": f"x{hop}{k}",
                             "route": switches[hop:hop + 2],
                             "access_delay": access_delay()})
    trunks = [{"a": a, "b": b, "rate": rate}
              for (a, b), rate in zip(zip(switches, switches[1:]), rates)]
    return {"switches": switches, "trunks": trunks, "link_rate": 150.0,
            "sessions": sessions, "algorithm": "phantom",
            "algorithm_params": {}, "duration": horizon}


def settled_mean(probe, start: float, end: float) -> float:
    """Time-weighted mean of a sample-and-hold series over [start, end]."""
    window = probe.window(start, end)
    total, at, value = 0.0, start, probe.value_at(start, 0.0)
    for t, v in zip(window.times, window.values):
        total += value * (t - at)
        at, value = t, v
    return (total + value * (end - at)) / (end - start)


def fair_share_gap(config: dict[str, Any], run) -> float:
    """Worst relative gap between a session's last-quarter mean ACR and
    its phantom-adjusted max-min share (backward-RM tax included)."""
    from repro.fuzz.oracle import oracle_for_config

    end = float(config["duration"])
    return max(
        abs(settled_mean(run.net.sessions[vc].acr_probe, 0.75 * end, end)
            - share) / share
        for vc, share in oracle_for_config(config).items())


class AtmParking(_Simulation):
    name = "atm_parking"
    modules = ("repro.core", "repro.scenarios.generic", "repro.fuzz.harness",
               "repro.obs.health", "repro.perf.golden")
    warmup = 0.02

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        # the shortest horizon whose last quarter has settled
        self.horizon = 0.1 if quick else 0.25
        self.steps = round(self.horizon / 0.0125)
        self.config = parking_config(seed, self.horizon)

    def inputs(self) -> dict[str, Any]:
        return self.config

    def build(self):
        from repro.core import PhantomAlgorithm
        from repro.scenarios.generic import build_atm

        return build_atm(self.config, algorithm_factory=PhantomAlgorithm,
                         seed=self.seed, run=False)

    def summarize(self, run) -> dict[str, Any]:
        outputs = super().summarize(run)
        outputs["fair_share_gap"] = fair_share_gap(self.config, run)
        return outputs

    def judge(self, run, outputs: dict[str, Any]) -> None:
        from repro.fuzz.harness import oracle_eligibility
        from repro.obs.health import build_health

        reason = oracle_eligibility(self.config)
        self.expect(reason is None, f"config is not oracle-eligible: {reason}")
        gap = outputs["fair_share_gap"]
        self.expect(gap <= GAP_LIMIT,
                    f"fair_share_gap {gap:.4f} > {GAP_LIMIT}")
        verdict = build_health(run)["verdict"]
        self.expect(verdict != "violated", "health verdict: violated")
        self.extra["fair_share_gap"] = (gap, "fraction", 1)

    def count(self, run) -> dict[str, float]:
        ports = run.net.trunks.values()
        return {
            **super().count(run),
            "atm.port.cells": sum(p.departures for p in ports),
            "atm.port.drops": sum(p.drops for p in ports),
            "atm.endsystem.rm_sent": sum(
                s.source.rm_sent for s in run.net.sessions.values()),
            "core.macr.updates": sum(
                p.algorithm.filter.updates for p in ports),
        }


def tcp_access_delays(seed: int) -> list[float]:
    """The ``tcp_discard`` input: 8 access delays uniform in [1, 8] ms
    (propagation RTTs of 6-34 ms: four access traversals plus the
    1 ms trunk both ways)."""
    from repro.sim import RngStreams

    rng = RngStreams(seed).stream("e2e.tcp_discard")
    return [round(rng.uniform(1e-3, 8e-3), 6) for _ in range(8)]


class TcpDiscard(_Simulation):
    name = "tcp_discard"
    modules = ("repro.scenarios.tcp", "repro.obs.health",
               "repro.perf.golden")
    warmup = 4.0

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.horizon = 10.0 if quick else 40.0
        self.steps = round(self.horizon / 2.0)
        self.delays = tcp_access_delays(seed)

    def inputs(self) -> dict[str, Any]:
        return {"access_delays": self.delays, "trunk_rate": 10.0,
                "policy": "selective-discard", "duration": self.horizon}

    def build(self):
        from repro.scenarios.tcp import rtt_fairness, selective_discard_policy

        return rtt_fairness(selective_discard_policy(),
                            access_delays=tuple(self.delays),
                            duration=self.horizon, trunk_rate=10.0,
                            run=False)

    def summarize(self, run) -> dict[str, Any]:
        outputs = super().summarize(run)
        outputs["jain_index"] = run.jain()
        return outputs

    def judge(self, run, outputs: dict[str, Any]) -> None:
        from repro.obs.health import build_health

        jain = outputs["jain_index"]
        self.expect(jain >= JAIN_FLOOR,
                    f"jain_index {jain:.4f} < {JAIN_FLOOR}")
        verdict = build_health(run)["verdict"]
        self.expect(verdict != "violated", "health verdict: violated")
        self.extra["jain_index"] = (jain, "index", 1)

    def count(self, run) -> dict[str, float]:
        ports = run.net.trunks.values()
        return {
            **super().count(run),
            "tcp.reno.retransmits": sum(
                f.source.retransmits for f in run.net.flows.values()),
            "tcp.router.drops": run.bottleneck.drops,
            "core.macr.updates": sum(
                p.policy.phantom.filter.updates for p in ports),
        }


class FluidMillion(_Simulation):
    name = "fluid_million"
    modules = ("repro.fluid.scenarios", "repro.perf.golden")
    warmup = 0.5

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.horizon = 1.0 if quick else 5.0
        self.steps = round(self.horizon / 0.25)
        # the population is symmetric: the seed is recorded, not used
        scale = (100, 100, 10) if quick else (1000, 1000, 100)
        self.params = dict(zip(("cohorts", "flows_per_cohort", "greedy"),
                               scale))
        self.params.update(background_load=0.7, link_rate=10000.0)

    def inputs(self) -> dict[str, Any]:
        return {**self.params, "duration": self.horizon, "seed": self.seed}

    def build(self):
        from repro.fluid.scenarios import many_flows

        return many_flows(duration=self.horizon, run=False, **self.params)

    def summarize(self, run) -> dict[str, Any]:
        outputs = super().summarize(run)
        # one final ACR per cohort: keep the digest, not a thousand rows
        outputs["counters"] = digest(outputs["counters"])
        return outputs

    def judge(self, run, outputs: dict[str, Any]) -> None:
        bad = [c.name for c in run.net.cohorts if not math.isfinite(c.acr)]
        self.expect(not bad, f"non-finite ACR in {len(bad)} cohort(s)")

    def count(self, run) -> dict[str, float]:
        return {"fluid.steps": run.net.steps,
                "core.macr.updates": sum(
                    t.filter.updates for t in run.net.trunks.values())}


# ----------------------------------------------------------------------
# pipeline workloads: fuzz_cold, suite_warm
# ----------------------------------------------------------------------
#: Predicted load (:func:`predicted_load`) a generated fuzz scenario is
#: compressed to when its own is larger: about 0.15 times the generator's
#: median, so a scenario takes about a fifth of a second, per-task
#: overhead weighs as it does in a campaign of short runs, and no single
#: draw's size dominates the time or the peak memory.
FUZZ_LOAD = 18.0


def predicted_load(config: dict[str, Any]) -> float:
    """A scenario's size, predicted from its config: the megabits each
    session carries at an equal split of every trunk it crosses, times
    the links of its route (access, trunks, egress)."""
    link_rate = float(config.get("link_rate", 150.0))
    rate = {frozenset((t["a"], t["b"])): t.get("rate") or link_rate
            for t in config["trunks"]}
    hops_of = {s["vc"]: [frozenset(hop)
                         for hop in zip(s["route"], s["route"][1:])]
               for s in config["sessions"]}
    crossing: dict[frozenset, int] = {}
    for hops in hops_of.values():
        for hop in hops:
            crossing[hop] = crossing.get(hop, 0) + 1
    total = 0.0
    for session in config["sessions"]:
        hops = hops_of[session["vc"]]
        share = min([rate[hop] / crossing[hop] for hop in hops]
                    + [link_rate])
        active = config["duration"] - session.get("start", 0.0)
        if "onoff" in session:
            onoff = session["onoff"]
            active *= onoff["on"] / (onoff["on"] + onoff["off"])
        total += share * active * (len(hops) + 2)
    return total


def compressed(config: dict[str, Any], factor: float) -> dict[str, Any]:
    """``config`` with its horizon, start and stop times and on/off
    periods multiplied by ``factor``."""
    out = json.loads(json.dumps(config))
    out["duration"] = out["duration"] * factor
    for session in out["sessions"]:
        if "start" in session:
            session["start"] *= factor
        if "onoff" in session:
            session["onoff"] = {k: v * factor
                                for k, v in session["onoff"].items()}
    for stream in out.get("cbr", []) + out.get("vbr", []):
        for key in ("start", "stop", "mean_on", "mean_off"):
            if stream.get(key) is not None:
                stream[key] *= factor
    return out


def cell_hops(result) -> int:
    """Cell-link traversals a fuzz task simulated: every forward cell and
    every turned-around RM cell crosses the access link, each trunk and
    the egress link of its session's route."""
    if not result.ok:
        return 0
    counters = result.payload["counters"]
    return sum((counters[f"{s['vc']}.cells_sent"]
                + counters[f"{s['vc']}.rm_sent"]) * (len(s["route"]) + 1)
               for s in result.spec.config["sessions"])


class FuzzCold(Workload):
    """Generated scenarios through the fuzz pipeline, cold cache.

    Each scenario goes through ``fuzz.harness.run_campaign`` on its own,
    at one job: source-closure fingerprint, cache miss, build, simulate,
    the worker's reduce (digests and health), cache write, judging.  One
    job, because two pool workers on a shared CPU only time-share, at a
    speed no calibration slice could match; the pool's fork and pickle
    costs are what this leaves out.

    Generated scenarios differ in size by an order of magnitude.  Each is
    compressed in time to at most :data:`FUZZ_LOAD`, and one unit of work
    is a million simulated cell-hops rather than one scenario, so the
    result moves with the code more than with the seed's draw.
    ``scenarios_per_s`` is printed beside it.

    A run processes a fixed number of scenarios, sized to take about
    ``--seconds`` at the reference speed, not as many as fit in
    ``--seconds``: two versions of the program must time the same
    scenarios, whichever is faster.
    """

    name = "fuzz_cold"
    unit = "million cell-hops"
    modules = ("repro.fuzz.gen", "repro.fuzz.harness", "repro.exec.cache",
               "repro.exec.entries")
    #: Scenarios processed per second of ``--seconds``.
    SCENARIOS_PER_S = 5.0
    #: Specs generated per set-up: the most one run processes, at least
    #: ``SCENARIOS_PER_S`` times ``run_seconds``.
    POOL = 96
    #: Scenarios every run processes and records (the expected outputs
    #: and the per-layer counters cover these).
    RECORDED = 4

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.specs: list = []
        self.task_outputs: dict[str, dict[str, Any]] = {}
        self.phases = 0

    def generate(self, count: int) -> list:
        from repro.exec.spec import TaskSpec
        from repro.fuzz.gen import generate_batch

        specs = []
        for spec in generate_batch(self.seed, count):
            factor = min(1.0, FUZZ_LOAD / predicted_load(spec.config))
            specs.append(TaskSpec.from_dict(
                {**spec.to_dict(), "config": compressed(spec.config, factor)}))
        return specs

    def inputs(self) -> dict[str, Any]:
        return {"specs": [s.to_dict() for s in self.generate(self.RECORDED)]}

    def setup(self) -> None:
        from repro.exec.fingerprint import SourceIndex, task_fingerprint

        self.specs = self.generate(self.POOL)
        # warm-up prefix: one source-closure walk
        task_fingerprint(self.specs[0], index=SourceIndex())

    def measure(self, seconds: float, spans: Spans) -> Window:
        from repro.exec.cache import ResultCache
        from repro.fuzz.harness import run_campaign

        window = Window()
        self.phases += 1
        cache = ResultCache(self.workdir / f"fuzz-cache-{self.phases}")
        count = max(self.RECORDED, round(seconds * self.SCENARIOS_PER_S))
        for spec in self.specs[:min(count, self.POOL)]:
            with spans.span("task", id=spec.task_id) as span:
                start = time.perf_counter()
                results, summary = run_campaign([spec], jobs=1, cache=cache,
                                                timeout=CALL_TIMEOUT_S)
                elapsed = time.perf_counter() - start
            work = cell_hops(results[0]) / 1e6
            if work > 0:
                window.samples.append(elapsed / work)
                window.spans.append((span["start"], span["end"]))
            window.work += work
            window.busy += elapsed
            window.attempted += 1
            window.ops += 1
            window.failed += self.record(results[0],
                                         summary["judgments"][0])
            # free the finished network (cyclic garbage) before the next
            # scenario, as the simulations do between runs
            del results
            gc.collect()
            self.speed.sample()
        shutil.rmtree(cache.root, ignore_errors=True)
        self.outputs = {spec.task_id: self.task_outputs[spec.task_id]
                        for spec in self.specs[:self.RECORDED]}
        return window

    def record(self, result, judgment: dict[str, Any]) -> int:
        """Check one scenario; returns 1 if it failed."""
        task = result.spec.task_id
        kind = judgment["classification"]
        outputs = {
            "classification": kind,
            "checks": judgment.get("checks", []),
            "executed_events": (result.payload["executed_events"]
                                if result.ok else None),
            "probe_digests": (digest(result.payload["probe_digests"])
                              if result.ok else None),
            "cell_hops": cell_hops(result),
        }
        seen = self.task_outputs.setdefault(task, outputs)
        self.expect(seen == outputs, f"{task}: outputs differ between runs")
        if seen is outputs and len(self.task_outputs) <= self.RECORDED:
            self.count(result, kind)
        # a violated judgment is a finding of the fuzzer: an output,
        # checked for repeatability, not a failed operation
        if kind in ("crash", "timeout"):
            self.expect(False, f"{task}: {kind}: {judgment.get('detail')}")
            return 1
        return 0

    def count(self, result, kind: str) -> None:
        """Add one recorded scenario to the per-layer counters."""
        counters = result.payload["counters"] if result.ok else {}
        for name, value in (
                ("sim.engine.events",
                 result.payload["executed_events"] if result.ok else 0),
                ("atm.port.cells", counters.get("bottleneck.departures", 0)),
                ("atm.port.drops", counters.get("bottleneck.drops", 0)),
                ("atm.endsystem.rm_sent",
                 sum(v for k, v in counters.items()
                     if k.endswith(".rm_sent"))),
                ("exec.cache.hits", int(result.cached)),
                ("exec.cache.misses", int(not result.cached)),
                ("exec.pool.retries", max(result.attempts - 1, 0)),
                ("fuzz.violations", int(kind == "violated"))):
            self.counts[name] = self.counts.get(name, 0) + value

    def traced(self, seconds: float, spans: Spans) -> Traced:
        """The profiler slows a scenario three- to sevenfold, so the
        profiled pass processes half as many scenarios as ``seconds``
        would: it lasts about as long as the other profiled passes."""
        return super().traced(seconds / 2, spans)

    def aliases(self, window: Window) -> dict[str, tuple[float, str, int]]:
        return {"scenarios_per_s": (window.attempted / window.busy, "1/s",
                                    window.attempted)}


class SuiteWarm(Workload):
    """Fresh-process ``repro suite --assert-cached`` replays.

    Set-up runs the E01-E26 suite cold into a fresh cache.  Every replay
    then finds all its tasks cached: interpreter start, import, the
    source-closure fingerprint of every task and the cache reads are the
    whole cost.  The horizon scale is the smallest the suite accepts;
    it only shortens the cold set-up, since a replay reads results.

    A replay slows down less than a loop over small objects does when
    the host slows down, and about as much as compiling source does, so
    its calibration slice compiles.  Its peak resident set is the
    replays' own, not the cold set-up's.
    """

    name = "suite_warm"
    unit = "scenario"
    modules = ("repro.exec.suite",)
    calibration = (compile_slice, 0.0046)
    SCALE = 0.05

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.experiments = ["E01"] if quick else None
        self.cache_dir: Path | None = None
        self.setups = 0
        self.tasks = 0
        self.profiles: list[Path] = []
        #: Peak resident set (MB) of each measured replay process.
        self.replay_rss: list[float] = []

    def inputs(self) -> dict[str, Any]:
        from repro.exec.suite import suite_specs

        specs = suite_specs(self.SCALE, self.seed, self.experiments)
        return {"scale": self.SCALE,
                "specs": [spec.to_dict() for spec in specs]}

    def command(self, report: Path, *extra: str) -> list[str]:
        command = ["-m", "repro", "suite", "--scale", str(self.SCALE),
                   "-j", "2", "--seed", str(self.seed),
                   "--cache-dir", str(self.cache_dir), "--manifest", "",
                   "--health", "--output", str(report), *extra]
        if self.experiments:
            command += ["--experiments", ",".join(self.experiments)]
        return command

    def _suite(self, command: list[str]
               ) -> tuple[subprocess.CompletedProcess, float]:
        """Run one suite process; returns it and its own peak resident
        set in MB (from ``wait4``, so no other child is counted)."""
        with subprocess.Popen([sys.executable, *command], cwd=self.workdir,
                              env=program_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) as proc:
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                stderr = proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        done = subprocess.CompletedProcess(proc.args, proc.returncode,
                                           None, stderr)
        return done, usage.ru_maxrss / 1024.0   # Linux reports kilobytes

    def setup(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.setups += 1
        self.cache_dir = self.workdir / f"suite-cache-{self.setups}"
        report = self.workdir / "suite-cold.json"
        proc, _ = self._suite(self.command(report))
        if proc.returncode != 0 or not report.is_file():
            raise RuntimeError(f"cold suite run failed: {proc.stderr[-2000:]}")
        tasks = json.loads(report.read_text())["tasks"]
        self.tasks = len(tasks)
        self.outputs = {t["task_id"]: digest(t.get("probe_digests"))
                        for t in tasks}

    def measure(self, seconds: float, spans: Spans,
                profiled: bool = False) -> Window:
        window = Window()
        deadline = time.perf_counter() + seconds
        while window.ops == 0 or time.perf_counter() < deadline:
            report = self.workdir / "suite-replay.json"
            command = self.command(report, "--assert-cached")
            if profiled:
                self.profiles.append(
                    self.workdir / f"replay-{len(self.profiles)}.prof")
                command = ["-m", "cProfile", "-o", str(self.profiles[-1]),
                           *command]
            report.unlink(missing_ok=True)
            start = time.perf_counter()
            with spans.span("replay", id=f"replay-{window.ops}") as span:
                proc, rss = self._suite(command)
            elapsed = time.perf_counter() - start
            if not profiled:
                self.replay_rss.append(rss)
            window.samples.append(elapsed / self.tasks)
            window.spans.append((span["start"], span["end"]))
            window.work += self.tasks
            window.busy += elapsed
            window.ops += 1
            window.attempted += self.tasks
            window.failed += self.check_replay(proc, report)
            self.speed.sample(slices=2)
        return window

    def peak_rss_mb(self) -> float:
        return max(self.replay_rss, default=0.0)

    def check_replay(self, proc, report: Path) -> int:
        """Check one replay; returns its failed-task count."""
        if not report.is_file():
            self.expect(False, f"replay wrote no report: "
                               f"{proc.stderr[-2000:]}")
            return self.tasks
        data = json.loads(report.read_text())
        bad = [t["task_id"] for t in data["tasks"]
               if t["status"] != "ok" or not t["cached"]]
        self.expect(not bad, f"replay re-ran or failed: {bad[:8]}")
        self.expect(proc.returncode == 0, "replay exited non-zero "
                                          "(uncached task or violated "
                                          "health verdict)")
        digests = {t["task_id"]: digest(t.get("probe_digests"))
                   for t in data["tasks"]}
        self.expect(digests == self.outputs,
                    "replayed results differ from the cold run's")
        self.counts = {"exec.cache.hits": data["cache"]["hits"],
                       "exec.cache.misses": data["cache"]["misses"]}
        return len(bad)

    def traced(self, seconds: float, spans: Spans) -> Traced:
        """Replays profiled in their own processes, stats merged.  Replay
        time outside the profile (interpreter start-up, the profile's
        write-out, exit) is the ``interpreter`` layer."""
        self.profiles = []
        window = self.measure(seconds, spans, profiled=True)
        stats = pstats.Stats(*map(str, self.profiles)).stats
        layers = attribute(stats, self.files)
        layers["interpreter"] = window.busy - sum(layers.values())
        return Traced(window, layers, window.busy, stats)

    def aliases(self, window: Window) -> dict[str, tuple[float, str, int]]:
        return {"scenarios_per_s": (window.work / window.busy, "1/s",
                                    len(window.samples))}


# ----------------------------------------------------------------------
# serve_overload
# ----------------------------------------------------------------------
class ServeOverload(Workload):
    """An open loop at 4x the gateway's admission capacity.

    One client submits on a fixed schedule over one keep-alive
    connection, whatever the server answers; a 429 is a refusal, not a
    failure.  Latency runs from the time a request was due to the
    server's ``finished_at`` (both ``time.monotonic``, one clock for
    every process on Linux), so a stalled generator shows as latency.

    The gateway shares the client's CPU, so the client's calibration
    slices time the CPU the jobs run on, but it runs only when the client
    is idle (``SCHED_IDLE``): the client's sends and slices are not
    queued behind a running job, as if the client had a machine of its
    own.
    """

    name = "serve_overload"
    unit = "job"
    modules = ("repro.serve.client", "repro.exec.spec")
    RATE_RPS = 60.0
    CAPACITY_RPS = 15.0
    SLOTS = 2
    #: A job finished later than this after its due time misses the SLO.
    SLO_S = 0.5
    JOB = {"scenario": "atm.staggered", "params": {"duration": 0.02}}

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.server: subprocess.Popen | None = None
        self.client = None
        self._log = None
        self.submitted = 0
        #: Seconds of accepted jobs' latency per part, last window.
        self.latency_parts: dict[str, float] = {}

    def job_seed(self, k: int) -> int:
        from repro.exec.spec import derive_seed

        return derive_seed(self.seed, f"job{k}")

    def inputs(self) -> dict[str, Any]:
        return {"rate_rps": self.RATE_RPS, "capacity_rps": self.CAPACITY_RPS,
                "slots": self.SLOTS, "job": self.JOB,
                "first_job_seeds": [self.job_seed(k) for k in range(8)]}

    def setup(self) -> None:
        from repro.serve.client import ServeClient

        self.close()
        self._log = open(self.workdir / "serve.log", "ab")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--slots", str(self.SLOTS),
             "--capacity", str(self.CAPACITY_RPS),
             "--cache", "", "--manifest", ""],
            cwd=self.workdir, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
            preexec_fn=lambda: os.sched_setscheduler(
                0, os.SCHED_IDLE, os.sched_param(0)))
        line = self.server.stdout.readline()
        found = re.search(r"http://([\d.]+):(\d+)", line)
        if found is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServeClient(found[1], int(found[2]),
                                  client_id="e2e", timeout_s=30.0)
        # warm-up prefix: one job end to end; its digests are the
        # reference every measured job must reproduce
        job = self._submit()
        final = self.wait(job["id"])
        self.outputs = {"probe_digests": final.get("probe_digests")}

    def _submit(self) -> dict[str, Any]:
        self.submitted += 1
        return self.client.submit(self.JOB["scenario"],
                                  params=self.JOB["params"],
                                  seed=self.job_seed(self.submitted))

    def wait(self, job_id: str) -> dict[str, Any]:
        """Poll one job on the keep-alive connection until it is done."""
        deadline = time.monotonic() + CALL_TIMEOUT_S
        while True:
            snapshot = self.client.job(job_id)
            if snapshot["state"] in ("ok", "error", "timeout"):
                return snapshot
            if time.monotonic() > deadline:
                return {**snapshot, "state": "timeout"}
            time.sleep(0.01)

    def measure(self, seconds: float, spans: Spans) -> Window:
        from http.client import HTTPException

        from repro.serve.client import RateLimited, ServeError

        window = Window()
        offered = max(1, round(seconds * self.RATE_RPS))
        accepted: list[tuple[str, float, float, float]] = []
        lags: list[float] = []
        refused_429 = refused_503 = errors = 0
        origin = time.monotonic() + 0.05
        with spans.span("offer"):
            for k in range(offered):
                due = origin + k / self.RATE_RPS
                if due - time.monotonic() > 0.01:
                    self.speed.sample(every=0.1)
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                lags.append(sent - due)
                try:
                    job = self._submit()
                except RateLimited:
                    refused_429 += 1
                    continue
                except ServeError as exc:
                    refused_503 += exc.status == 503
                    errors += 1
                    continue
                except (OSError, HTTPException):
                    errors += 1
                    continue
                accepted.append((job["id"], due, sent, time.monotonic()))
            offer_s = time.monotonic() - origin
        with spans.span("drain"):
            finals = {job_id: self.wait(job_id)
                      for job_id, *_ in accepted}
        state = self.client.healthz()["admission"]

        latencies, intervals = [], []
        parts = {"serve.gen_lag": 0.0, "serve.submit": 0.0,
                 "serve.queue": 0.0, "serve.exec": 0.0}
        rtts, waits, execs, not_ok = [], [], [], 0
        for job_id, due, sent, acked in accepted:
            final = finals[job_id]
            if final["state"] != "ok" or final.get(
                    "probe_digests") != self.outputs["probe_digests"]:
                not_ok += 1
                continue
            submitted, started = final["submitted_at"], final["started_at"]
            finished = final["finished_at"]
            latencies.append(finished - due)
            intervals.append((due, finished))
            rtts.append(acked - sent)
            waits.append(started - submitted)
            execs.append(finished - started)
            parts["serve.gen_lag"] += sent - due
            parts["serve.submit"] += submitted - sent
            parts["serve.queue"] += started - submitted
            parts["serve.exec"] += finished - started
            spans.add("submit", sent, acked, id=job_id)
            spans.add("queued", submitted, started, id=job_id)
            spans.add("run", started, finished, id=job_id)
        self.expect(not_ok == 0, f"{not_ok} accepted job(s) did not finish "
                                 f"ok with the reference digests")
        self.expect(errors == 0, f"{errors} request(s) got a 5xx or a "
                                 f"connection error")
        window.samples = latencies
        window.spans = intervals
        window.work = sum(1 for t in latencies if t <= self.SLO_S)
        window.busy = offer_s
        window.attempted = offered
        window.failed = errors + not_ok
        window.ops = 1
        self.latency_parts = parts
        self.counts = {
            "serve.admitted_frac": len(accepted) / offered,
            "serve.refused_429": refused_429,
            "serve.refused_503": refused_503,
            "serve.grant_rps": state["grant_rps"],
            "serve.macr_rps": state["macr_rps"],
            "core.macr.updates": state["filter_updates"],
            "serve.submit_rtt_p95_s": quantile(rtts, 0.95),
            "serve.queue_wait_p95_s": quantile(waits, 0.95),
            "serve.exec_p50_s": quantile(execs, 0.5),
            "serve.gen_lag_p95_s": quantile(lags, 0.95),
        }
        return window

    def traced(self, seconds: float, spans: Spans) -> Traced:
        """The measured window's own spans, split by where each job's
        latency went: generator lag, submission, queue wait, execution.
        Client-side timestamps cost nothing, so no second run is made."""
        self.counts["trace.overhead_ratio"] = 1.0
        parts = self.latency_parts
        return Traced(Window(), dict(parts), sum(parts.values()))

    def aliases(self, window: Window) -> dict[str, tuple[float, str, int]]:
        n = len(window.samples)
        out = {"latency_p50_s": (quantile(window.samples, 0.5), "s", n),
               "slo_goodput_rps": (window.work / window.busy, "jobs/s",
                                   window.attempted)}
        # the highest percentile with at least ten samples beyond it
        for q in (0.95, 0.9):
            if n * (1 - q) >= 10:
                out[f"latency_p{round(q * 100)}_s"] = (
                    quantile(window.samples, q), "s", n)
        return out

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
            self.server = None
        if self._log is not None:
            self._log.close()
            self._log = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (AtmParking, TcpDiscard, FuzzCold, SuiteWarm,
                              FluidMillion, ServeOverload)}


# ----------------------------------------------------------------------
# the per-workload process
# ----------------------------------------------------------------------
def _metrics(workload: Workload, window: Window, setups: list[float],
             setup_spans: list[tuple[float, float]]
             ) -> dict[str, dict[str, Any]]:
    if not window.samples:
        workload.expect(False, "no unit of work completed")
    n = len(window.samples)
    speed = workload.speed
    scaled = speed.scaled(window.samples, window.spans) or [0.0]
    metrics = {
        "setup_s": (statistics.median(speed.scaled(setups, setup_spans)),
                    "s", len(setups)),
        "setup_wall_s": (statistics.median(setups), "s", len(setups)),
        "time_per_unit_s": (statistics.median(scaled), "s", n),
        "wall_per_unit_s": (statistics.median(window.samples or [0.0]),
                            "s", n),
        "machine_speed": (speed.factor, "x", len(speed.slices)),
        "units_per_s": (window.work / window.busy if window.busy else 0.0,
                        "1/s", n),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", 1),
        "failed_frac": (window.failed / max(window.attempted, 1),
                        "fraction", window.attempted),
        **(workload.aliases(window) if window.samples else {}),
        **workload.extra,
    }
    return {name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in metrics.items()}


def _per_layer(workload: Workload, traced: Traced, untraced: Window,
               import_s: float) -> dict[str, float]:
    values: dict[str, float] = {"startup.import_s": import_s}
    for layer, seconds in traced.layers.items():
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.self_frac"] = seconds / traced.wall
    values["trace.unattributed_frac"] = (
        1.0 - sum(traced.layers.values()) / traced.wall)
    if traced.window.samples and untraced.samples:
        values["trace.overhead_ratio"] = (
            statistics.median(traced.window.samples)
            / statistics.median(untraced.samples))
    calls = sum(nc for (path, _line, func), (_cc, nc, *_rest)
                in traced.stats.items()
                if func == "task_fingerprint"
                and path.endswith(os.path.join("exec", "fingerprint.py")))
    values["exec.fingerprint.calls"] = calls / max(traced.window.ops, 1)
    values.update(workload.counts)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    pin_to_one_cpu()
    start = time.perf_counter()
    for module in cls.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    workload = cls(args.seed, args.quick, workdir)
    spans = Spans()
    setups: list[float] = []
    setup_spans: list[tuple[float, float]] = []
    traced = None
    try:
        workload.speed.sample(slices=3)
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            with spans.span("setup") as span:
                workload.setup()
            setups.append(time.perf_counter() - start)
            setup_spans.append((span["start"], span["end"]))
            gc.collect()
            workload.speed.sample(slices=3)
        with spans.span("measure"):
            window = workload.measure(args.seconds, spans)
        if args.trace:
            measured = len(workload.speed.slices)
            with spans.span("traced"):
                traced = workload.traced(args.seconds * TRACED_SHARE, spans)
            # slices timed under the profiler say nothing of the CPU
            del workload.speed.slices[measured:]
            window.attempted += traced.window.attempted
            window.failed += traced.window.failed
    finally:
        workload.close()

    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "unit": workload.unit,
        "inputs_sha256": digest(workload.inputs()),
        "attempted": window.attempted,
        "failed": window.failed,
        "problems": workload.problems,
        "metrics": _metrics(workload, window, setups, setup_spans),
        "outputs": workload.outputs,
    }
    if traced is not None:
        result["per_layer"] = _per_layer(workload, traced, window, import_s)
        result["layers"] = traced.layers
        result["traced_wall_s"] = traced.wall
        result["unmapped_modules"] = workload.files.unmapped()
        if args.trace_file:
            spans.write_chrome(Path(args.trace_file))
            result["trace_file"] = args.trace_file
    Path(args.result).write_text(json.dumps(result, sort_keys=True),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
