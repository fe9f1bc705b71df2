"""Worker-side task execution.

:func:`execute_task` is the single function the pool ships to worker
processes (by name — it is module-level, like every registered entry
point).  It resolves the spec's scenario from the registry, runs it, and
reduces the run handle to a JSON-able result payload:

* **summary metrics** — the standard per-kind set (rates/goodputs, Jain
  index, utilisation, queue statistics);
* **golden probe digests** — every probe series in canonical step form,
  sha256 over raw IEEE-754 bytes (the same reduction the golden-trace
  suite gates), so serial and parallel execution are *provably*
  bit-identical per task;
* **requested probe series** — full (times, values) columns for the
  spec's ``probes`` names, for callers that post-process (convergence
  times, windowed statistics);
* **health report** — the run's :mod:`repro.obs.health` verdicts
  (conservation, queue bounds, ε-band convergence vs the max-min
  oracle), so ``repro suite --health`` can aggregate without re-running
  anything.  ``build_health`` never raises, so a health failure cannot
  take the task down.

Exceptions never propagate: failures and timeouts come back as payloads
with ``status`` ``"error"``/``"timeout"`` so the pool can retry without
tearing down the executor.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from typing import Any

from repro.exec.registry import ScenarioEntry, get_scenario
from repro.exec.spec import TaskSpec
from repro.obs.health import build_health
from repro.perf.golden import probe_digest, run_parts


class TaskTimeout(Exception):
    """Raised inside the worker when a task overruns its wall budget."""


def _on_alarm(signum, frame):  # pragma: no cover - signal context
    raise TaskTimeout()


def _metrics_atm(run) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for vc, rate in sorted(run.steady_rates().items()):
        metrics[f"rates.{vc}"] = rate
    metrics["jain"] = run.jain()
    metrics["utilization"] = run.utilization()
    queue = run.queue_stats()
    metrics["queue.max"] = queue["max"]
    metrics["queue.mean"] = queue["mean"]
    start, end = run.steady_window()
    metrics["queue.steady_mean"] = run.queue_stats(start, end)["mean"]
    return metrics


def _metrics_tcp(run) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name, rate in sorted(run.goodputs().items()):
        metrics[f"goodput.{name}"] = rate
    metrics["jain"] = run.jain()
    metrics["total_goodput"] = run.total_goodput()
    queue = run.queue_stats()
    metrics["queue.max"] = queue["max"]
    metrics["queue.mean"] = queue["mean"]
    return metrics


def _series(probes: dict[str, Any],
            names: tuple[str, ...]) -> dict[str, Any]:
    missing = sorted(set(names) - set(probes))
    if missing:
        raise KeyError(
            f"requested probe series not in run: {', '.join(missing)}; "
            f"available: {', '.join(sorted(probes))}")
    return {name: {"times": list(probes[name].times),
                   "values": list(probes[name].values)}
            for name in sorted(names)}


def _failure(spec: TaskSpec, status: str, error: str) -> dict[str, Any]:
    return {"task_id": spec.task_id, "scenario": spec.scenario,
            "status": status, "error": error}


def execute_task(payload: dict[str, Any],
                 tracer=None) -> dict[str, Any]:
    """Run one task described by ``payload`` and summarise the outcome.

    ``payload`` carries the spec's wire form and an optional per-task
    wall-clock ``timeout`` (seconds), enforced in-process via
    ``SIGALRM`` where the platform has it.  ``tracer``, which no spec
    carries, reaches the entry as its ``tracer`` keyword: ``repro run
    --trace`` records a task through this same path.
    """
    spec = TaskSpec.from_dict(payload["spec"])
    timeout = payload.get("timeout")
    try:
        entry = get_scenario(spec.scenario)
    except KeyError as exc:
        return _failure(spec, "error", str(exc))

    # signal.signal is only legal on the main thread; on a bridge thread
    # (repro.serve's executor) the caller enforces the budget instead
    use_alarm = (bool(timeout) and hasattr(signal, "SIGALRM")
                 and threading.current_thread()
                 is threading.main_thread())
    previous = None
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    # wall-clock reads are the execution-layer measurement (how long the
    # simulation took), not simulation state; outcomes stay deterministic
    start = time.perf_counter()  # lint: disable=DET002
    try:
        run = _call_entry(entry, spec, tracer)
        wall_s = time.perf_counter() - start  # lint: disable=DET002
    except TaskTimeout:
        return _failure(spec, "timeout",
                        f"task exceeded {timeout:g}s wall-clock budget")
    except Exception:
        return _failure(spec, "error", traceback.format_exc())
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    try:
        probes, counters = run_parts(run)
        # fluid runs expose the same rate/fairness/queue vocabulary as
        # ATM runs, so they share the reducer
        metrics = (_metrics_tcp(run) if entry.kind == "tcp"
                   else _metrics_atm(run))
        # fluid networks have no event kernel: the interval counter is
        # their clock and their "event" count
        sim = getattr(run.net, "sim", None)
        now = repr(sim.now) if sim is not None else repr(run.net.now)
        events = (sim.executed_events if sim is not None
                  else run.net.steps)
        return {
            "task_id": spec.task_id,
            "scenario": spec.scenario,
            "status": "ok",
            "now": now,
            "executed_events": events,
            "metrics": metrics,
            "counters": counters,
            "probe_digests": {name: probe_digest(probe)
                              for name, probe in sorted(probes.items())},
            "series": _series(probes, spec.probes),
            "health": build_health(run, scenario=spec.scenario,
                                   params=spec.params),
            "wall_s": round(wall_s, 4),
        }
    except Exception:
        return _failure(spec, "error", traceback.format_exc())


def _call_entry(entry: ScenarioEntry, spec: TaskSpec, tracer):
    kwargs = dict(spec.params)
    if spec.config is not None:
        kwargs["config"] = dict(spec.config)
    if entry.takes_seed and spec.seed is not None:
        kwargs["seed"] = spec.seed
    if tracer is not None:
        kwargs["tracer"] = tracer
    return entry.fn(**kwargs)
