"""``repro run``, ``repro suite`` and ``repro sweep``: the execution
front-ends.

``run`` executes one registry scenario in-process, through the worker
code a suite task runs, and writes its trace and manifest; ``suite``
fans the experiment index (E01–E26) across worker processes and writes
one merged run manifest; ``sweep`` expands a declarative parameter grid
for a single scenario.  ``suite`` and ``sweep`` share the executor flags
(``-j``, ``--cache-dir``/``--no-cache``, ``--timeout``, ``--retries``)
and exit non-zero when any task fails; ``run`` and ``sweep`` share the
``--set`` parser.  A bad scenario name or ``--set`` pair exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, NoReturn, Sequence

from repro.analysis import format_table
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.pool import ExecResult, default_jobs, run_tasks
from repro.exec.registry import ScenarioEntry, all_scenarios
from repro.exec.suite import (experiment_ids, set_dotted, suite_specs,
                              sweep_specs)

#: Schema stamped into ``--output`` reports.
REPORT_SCHEMA = "repro.exec.report"
REPORT_VERSION = 1


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: min(4, cores); "
                             "1 = serial in-process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for per-task seed derivation "
                             "(default 0)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="content-addressed result cache directory "
                             f"(default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; do not read or write "
                             "the cache")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-task wall budget in seconds "
                             "(default: none)")
    parser.add_argument("--retries", type=int, default=1,
                        help="re-attempts per failed task (default 1)")
    parser.add_argument("--output", default="",
                        help="write the JSON task report to this path")


def add_suite_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every simulated horizon "
                             "(default 1.0)")
    parser.add_argument("--experiments", default="",
                        help="comma-separated experiment ids (e.g. "
                             "E01,E19); default: all")
    parser.add_argument("--manifest", default="repro_suite.manifest.json",
                        help="merged run manifest path; '' to skip")
    parser.add_argument("--assert-cached", action="store_true",
                        help="fail unless every task was served from "
                             "the cache (CI second-pass check)")
    parser.add_argument("--record-bench", default="",
                        help="merge suite wall/cache numbers into this "
                             "BENCH_perf.json-style report")
    parser.add_argument("--health", action="store_true",
                        help="aggregate per-task HealthReports "
                             "(conservation, queue bounds, ε-band "
                             "convergence) and exit non-zero on any "
                             "violated verdict")
    _add_executor_arguments(parser)


def _add_set_argument(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="settings",
                        help=what + "; dotted keys reach nested params "
                             "(algorithm_params.interval=2e-3), values "
                             "parse as JSON, falling back to strings; "
                             "repeatable")


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", metavar="NAME",
                        help="registered scenario (see `repro list`), "
                             "e.g. atm.staggered")
    _add_set_argument(parser, "entry keyword, seed included (seed=3)")
    parser.add_argument("--trace", default="",
                        help="record a JSONL trace to this path (see "
                             "docs/OBSERVABILITY.md)")
    parser.add_argument("--manifest", default="repro_run.manifest.json",
                        help="run manifest path, the HealthReport "
                             "included; '' to skip")


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True,
                        help="registered scenario name (see "
                             "`repro list`); e.g. atm.staggered")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=V1,V2,...",
                        help="sweep axis; dotted keys reach nested "
                             "params (algorithm_params.interval=1e-3,"
                             "2e-3); repeatable — axes form a cartesian "
                             "product")
    _add_set_argument(parser, "fixed (non-swept) parameter")
    parser.add_argument("--probe", action="append", default=[],
                        metavar="NAME",
                        help="probe series to return per task "
                             "(repeatable)")
    _add_executor_arguments(parser)


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_axes(pairs: Sequence[str]) -> dict[str, list[Any]]:
    axes: dict[str, list[Any]] = {}
    for pair in pairs:
        key, sep, values = pair.partition("=")
        if not key or not sep or not values:
            raise SystemExit(
                f"bad --param {pair!r}; expected KEY=V1,V2,...")
        axes[key] = [_parse_value(v) for v in values.split(",")]
    return axes


def _usage_error(message: str) -> NoReturn:
    """Exit 2, argparse's status for a bad command line."""
    print(f"repro: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_settings(pairs: Sequence[str]) -> dict[str, Any]:
    """``--set KEY=VALUE`` pairs as a (nested) params dict."""
    params: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not key or not sep:
            _usage_error(f"bad --set {pair!r}; expected KEY=VALUE")
        try:
            set_dotted(params, key, _parse_value(value))
        except TypeError as exc:
            _usage_error(f"bad --set {pair!r}: {exc}")
    return params


def _entry(name: str) -> ScenarioEntry:
    known = all_scenarios()
    if name not in known:
        _usage_error(f"unknown scenario {name!r}; known: "
                     f"{', '.join(known)}")
    return known[name]


def _check_params(entry: ScenarioEntry, params: dict[str, Any]) -> None:
    try:
        entry.check_params(params)
    except (TypeError, ValueError) as exc:
        _usage_error(str(exc))


def _cache(args: argparse.Namespace) -> ResultCache | None:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _result_row(result: ExecResult) -> list[Any]:
    source = "cache" if result.cached else f"run x{result.attempts}"
    note = ""
    if not result.ok and result.error:
        note = result.error.strip().splitlines()[-1][:60]
    return [result.spec.task_id, result.spec.scenario, result.status,
            source, f"{result.wall_s:.2f}", note]


def _print_results(results: Sequence[ExecResult]) -> None:
    print(format_table(
        ["task", "scenario", "status", "source", "wall s", ""],
        [_result_row(r) for r in results]))


def _report(results: Sequence[ExecResult], *,
            command: str, wall_s: float, jobs: int,
            cache: ResultCache | None,
            extra: dict[str, Any]) -> dict[str, Any]:
    tasks = []
    for result in results:
        row: dict[str, Any] = {
            "task_id": result.spec.task_id,
            "scenario": result.spec.scenario,
            "params": dict(result.spec.params),
            "seed": result.spec.seed,
            "status": result.status,
            "cached": result.cached,
            "attempts": result.attempts,
            "wall_s": result.wall_s,
            "fingerprint": result.fingerprint,
        }
        if result.ok:
            row["metrics"] = result.payload["metrics"]
            row["probe_digests"] = result.payload["probe_digests"]
            if result.payload.get("series"):
                row["series"] = result.payload["series"]
        else:
            row["error"] = result.error
        tasks.append(row)
    return {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "command": command,
        "jobs": jobs,
        "wall_s": round(wall_s, 4),
        "cache": cache.stats() if cache is not None else None,
        "tasks": tasks,
        **extra,
    }


def _write_report(path: str, report: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _summarise(results: Sequence[ExecResult], wall_s: float,
               cache: ResultCache | None) -> None:
    done = sum(1 for r in results if r.ok)
    cached = sum(1 for r in results if r.cached)
    failed = [r for r in results if not r.ok]
    line = (f"\n{done}/{len(results)} ok ({cached} from cache) "
            f"in {wall_s:.2f}s wall")
    if cache is not None:
        stats = cache.stats()
        line += f"; cache hits {stats['hits']}, misses {stats['misses']}"
    print(line)
    for result in failed:
        last = (result.error or "").strip().splitlines()
        print(f"  FAILED {result.spec.task_id} ({result.status}): "
              f"{last[-1] if last else 'no detail'}")


def _merged_manifest(path: str, results: Sequence[ExecResult],
                     params: dict[str, Any], seed: int, jobs: int,
                     wall_s: float, cache: ResultCache | None,
                     health: dict[str, Any] | None = None) -> None:
    from repro import obs

    metrics: dict[str, float] = {}
    for result in results:
        if result.ok:
            for key, value in sorted(result.payload["metrics"].items()):
                metrics[f"{result.spec.task_id}.{key}"] = value
    tasks = []
    for r in results:
        row = {"task_id": r.spec.task_id, "scenario": r.spec.scenario,
               "status": r.status, "fingerprint": r.fingerprint}
        if r.ok and r.payload.get("health"):
            row["health"] = r.payload["health"]["verdict"]
        tasks.append(row)
    execution = {
        "jobs": jobs,
        "cached": sum(1 for r in results if r.cached),
        "cache": cache.stats() if cache is not None else None,
    }
    manifest = obs.build_manifest(
        command="suite", params=params, seed=seed, metrics=metrics,
        wall_s=wall_s, tasks=tasks, execution=execution, health=health)
    obs.write_manifest(path, manifest)
    print(f"wrote {path}")


def _suite_health(results: Sequence[ExecResult]
                  ) -> dict[str, Any] | None:
    """Aggregate the per-task HealthReports carried in ok payloads."""
    from repro.obs.health import merge_health

    reports = {r.spec.task_id: r.payload["health"]
               for r in results if r.ok and r.payload.get("health")}
    return merge_health(reports) if reports else None


def _print_health(merged: dict[str, Any]) -> None:
    print()
    print(format_table(
        ["check", "pass", "violated", "n/a"],
        [[name, counts["pass"], counts["violated"],
          counts["not-applicable"]]
         for name, counts in sorted(merged["checks"].items())]))
    print(f"\nhealth: {merged['verdict']} across {merged['runs']} "
          "run(s)")
    for run_id, bad in sorted(merged["violated"].items()):
        print(f"  VIOLATED {run_id}: {', '.join(bad)}")


def run_suite_command(args: argparse.Namespace) -> int:
    experiments = [e for e in args.experiments.split(",") if e] or None
    try:
        specs = suite_specs(scale=args.scale, seed=args.seed,
                            experiments=experiments)
    except ValueError as exc:
        raise SystemExit(f"repro suite: {exc}") from exc
    cache = _cache(args)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    start = time.perf_counter()
    results = run_tasks(specs, jobs=jobs, cache=cache,
                        timeout=args.timeout, retries=args.retries)
    wall_s = time.perf_counter() - start

    _print_results(results)
    _summarise(results, wall_s, cache)

    status = 0 if all(r.ok for r in results) else 1
    uncached = [r.spec.task_id for r in results if not r.cached]
    if args.assert_cached and uncached:
        print(f"\n--assert-cached: {len(uncached)} task(s) were "
              f"re-simulated: {', '.join(uncached[:8])}"
              + (" ..." if len(uncached) > 8 else ""))
        status = 1

    merged_health = None
    if args.health:
        merged_health = _suite_health(results)
        if merged_health is None:
            print("\n--health: no per-task health reports to aggregate")
            status = 1
        else:
            _print_health(merged_health)
            if merged_health["verdict"] == "violated":
                status = 1

    params = {"scale": args.scale,
              "experiments": experiments or experiment_ids()}
    if args.output:
        _write_report(args.output, _report(
            results, command="suite", wall_s=wall_s, jobs=jobs,
            cache=cache, extra={"scale": args.scale, "seed": args.seed}))
    if args.manifest:
        _merged_manifest(args.manifest, results, params, args.seed,
                         jobs, wall_s, cache, health=merged_health)
    if args.record_bench:
        _record_bench(args.record_bench, results, args.scale, jobs,
                      wall_s)
    return status


def _record_bench(path: str, results: Sequence[ExecResult],
                  scale: float, jobs: int, wall_s: float) -> None:
    """Merge suite wall/cache numbers into a BENCH_perf.json report."""
    from repro import perf

    # cpus is recorded because it decides whether -jN can help at all:
    # on a single-core machine j4 pays pool + pickling overhead for no
    # parallelism and lands *slower* than j1 (see docs/PERFORMANCE.md)
    perf.merge_report(path, "suite", {f"j{jobs}": {
        "scale": scale,
        "tasks": len(results),
        "cached": sum(1 for r in results if r.cached),
        "cpus": os.cpu_count(),
        "wall_s": round(wall_s, 2),
    }})
    print(f"recorded suite timing in {path}")


def run_single_command(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.exec.spec import TaskSpec
    from repro.exec.worker import execute_task

    entry = _entry(args.name)
    params = parse_settings(args.settings)
    _check_params(entry, params)
    seed = params.pop("seed", None)
    config = params.pop("config", None)
    try:
        spec = TaskSpec(task_id=args.name, scenario=args.name,
                        params=params, seed=seed, config=config)
    except (TypeError, ValueError) as exc:
        _usage_error(str(exc))
    tracer = obs.Tracer() if args.trace else None
    result = execute_task({"spec": spec.to_dict()}, tracer=tracer)
    if result["status"] != "ok":
        print(result["error"], file=sys.stderr)
        return 1

    health = result["health"]
    print(format_table(["metric", "value"],
                       [[key, f"{value:.6g}"] for key, value
                        in result["metrics"].items()]))
    print(f"\nevents   : {result['executed_events']} in "
          f"{result['wall_s']:.2f}s wall")
    _print_run_health(health)
    described = {"scenario": args.name, **spec.effective_params()}
    if tracer is not None:
        obs.write_trace_jsonl(args.trace, tracer,
                              meta={"command": "run", **described})
        print(f"\nwrote {args.trace} ({len(tracer.events)} events)")
    if args.manifest:
        obs.write_manifest(args.manifest, obs.build_manifest(
            command="run", params=described, seed=spec.seed,
            metrics=result["metrics"], wall_s=result["wall_s"],
            trace_path=args.trace or None, health=health))
        print(f"wrote {args.manifest} (health: {health['verdict']})")
    return 1 if health["verdict"] == "violated" else 0


def _print_run_health(report: dict[str, Any]) -> None:
    print(f"verdict  : {report['verdict']}")
    oracle = report.get("oracle")
    if oracle:
        shares = " ".join(f"{name}={rate:.2f}"
                          for name, rate in oracle.items())
        print(f"oracle   : {shares} Mb/s")
    print("checks   :")
    for check in report["checks"]:
        line = f"  {check['name']:<20} {check['verdict']}"
        ts = check["first_violation_ts"]
        if ts is not None:
            line += f"  (first violation at t={ts:.6f}s)"
        reason = check["evidence"].get("reason")
        if reason:
            line += f"  ({reason})"
        print(line)
        if check["verdict"] == "violated":
            for key, value in check["evidence"].items():
                print(f"      {key}: {value}")


def run_sweep_command(args: argparse.Namespace) -> int:
    entry = _entry(args.scenario)
    axes = _parse_axes(args.param)
    if not axes:
        raise SystemExit("sweep needs at least one --param axis")
    base = parse_settings(args.settings)
    specs = sweep_specs(args.scenario, axes, base=base, seed=args.seed,
                        probes=tuple(args.probe))
    for spec in specs:
        _check_params(entry, spec.params)
    cache = _cache(args)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    start = time.perf_counter()
    results = run_tasks(specs, jobs=jobs, cache=cache,
                        timeout=args.timeout, retries=args.retries)
    wall_s = time.perf_counter() - start

    _print_results(results)
    _print_sweep_metrics(results)
    _summarise(results, wall_s, cache)
    if args.output:
        _write_report(args.output, _report(
            results, command="sweep", wall_s=wall_s, jobs=jobs,
            cache=cache,
            extra={"scenario": args.scenario, "seed": args.seed,
                   "grid": axes, "base": base}))
    return 0 if all(r.ok for r in results) else 1


#: Compact cross-kind metric columns for the sweep table.
_SWEEP_METRICS = ("jain", "utilization", "total_goodput", "queue.max",
                  "queue.mean")


def _print_sweep_metrics(results: Sequence[ExecResult]) -> None:
    ok = [r for r in results if r.ok]
    if not ok:
        return
    columns = [m for m in _SWEEP_METRICS
               if any(m in r.payload["metrics"] for r in ok)]
    rows = []
    for result in ok:
        metrics = result.payload["metrics"]
        rows.append([result.spec.task_id]
                    + [metrics.get(m, "") for m in columns])
    print()
    print(format_table(["task"] + list(columns), rows))
