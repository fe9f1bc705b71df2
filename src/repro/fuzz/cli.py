"""``repro fuzz``: seeded campaigns, shrinking, corpus replay.

Three subcommands over the :mod:`repro.fuzz` machinery:

``repro fuzz run --seed 0 --budget 60``
    generate a batch, execute it cache-first, judge every outcome, and
    exit non-zero if anything violated / crashed / timed out.  Writes
    run manifests (``--manifest``), JSON reports (``--output``), and
    scenarios/sec throughput rows (``--record-bench``, BENCH_perf.json
    ``fuzz`` key).
``repro fuzz shrink --spec failing.json --output minimized.json``
    greedily minimize a failing spec (a ``TaskSpec.to_dict()`` file or
    a corpus entry) while its failure reproduces.
``repro fuzz replay``
    re-run every committed corpus entry and verify each still
    reproduces its recorded judgment — the CLI face of the tier-1
    ``tests/fuzz/test_corpus.py`` gate.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Any, Sequence

from repro.analysis import format_table
from repro.exec.cli import (_add_executor_arguments, _cache,
                            _print_results, _report, _suite_health,
                            _summarise, _write_report)
from repro.exec.pool import ExecResult, default_jobs
from repro.exec.spec import TaskSpec
from repro.fuzz.corpus import load_corpus, replay_entry
from repro.fuzz.gen import generate_batch
from repro.fuzz.harness import run_campaign
from repro.fuzz.shrink import shrink
from repro.obs.monitor import DEFAULT_EPS


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="fuzz_command", required=True)

    run_p = sub.add_parser(
        "run", help="generate and judge a seeded batch")
    run_p.add_argument("--budget", type=int, default=60,
                       help="number of generated scenarios (default 60)")
    run_p.add_argument("--manifest", default="",
                       help="write a merged run manifest to this path")
    run_p.add_argument("--assert-cached", action="store_true",
                       help="fail unless every task was served from "
                            "the cache (CI warm-replay check)")
    run_p.add_argument("--record-bench", default="",
                       help="merge scenarios/sec throughput into this "
                            "BENCH_perf.json-style report")
    _add_executor_arguments(run_p)
    run_p.set_defaults(fuzz_fn=run_fuzz_command)

    shrink_p = sub.add_parser(
        "shrink", help="minimize a failing spec while it reproduces")
    shrink_p.add_argument("--spec", required=True,
                          help="failing spec: a TaskSpec JSON file or "
                               "a corpus entry")
    _add_executor_arguments(shrink_p)
    shrink_p.set_defaults(fuzz_fn=run_shrink_command)

    replay_p = sub.add_parser(
        "replay", help="re-verify every committed corpus entry")
    replay_p.add_argument("--corpus-dir", default="tests/fuzz/corpus",
                          help="corpus directory "
                               "(default tests/fuzz/corpus)")
    _add_executor_arguments(replay_p)
    replay_p.set_defaults(fuzz_fn=run_replay_command)


def run_command(args: argparse.Namespace) -> int:
    return args.fuzz_fn(args)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _print_judgments(summary: dict[str, Any]) -> None:
    rows = []
    for judgment in summary["judgments"]:
        note = ", ".join(judgment.get("checks", []))
        if not note and "oracle_skipped" in judgment:
            note = f"oracle n/a: {judgment['oracle_skipped'][:48]}"
        rows.append([judgment["task_id"], judgment["classification"],
                     "cache" if judgment["cached"] else "run", note])
    print(format_table(["task", "verdict", "source", ""], rows))
    counts = summary["counts"]
    print(f"\n{counts['pass']} pass, {counts['violated']} violated, "
          f"{counts['crash']} crash, {counts['timeout']} timeout; "
          f"{summary['oracle_checked']} oracle-checked")


def _fuzz_manifest(path: str, results: Sequence[ExecResult],
                   summary: dict[str, Any], args, jobs: int,
                   wall_s: float, cache) -> None:
    from repro import obs

    tasks = []
    for result, judgment in zip(results, summary["judgments"]):
        row = {"task_id": result.spec.task_id,
               "scenario": result.spec.scenario,
               "status": result.status,
               "classification": judgment["classification"],
               "fingerprint": result.fingerprint}
        if result.ok and result.payload.get("health"):
            row["health"] = result.payload["health"]["verdict"]
        tasks.append(row)
    manifest = obs.build_manifest(
        command="fuzz",
        params={"budget": args.budget, "eps": DEFAULT_EPS},
        seed=args.seed,
        metrics={f"counts.{k}": float(v)
                 for k, v in summary["counts"].items()},
        wall_s=wall_s, tasks=tasks,
        execution={"jobs": jobs,
                   "cached": sum(1 for r in results if r.cached),
                   "cache": cache.stats() if cache is not None
                   else None},
        health=_suite_health(results))
    obs.write_manifest(path, manifest)
    print(f"wrote {path}")


def _record_fuzz_bench(path: str, results: Sequence[ExecResult],
                       args, jobs: int, wall_s: float) -> None:
    """Append a scenarios/sec row under BENCH_perf.json's fuzz key."""
    from repro import perf

    cached = sum(1 for r in results if r.cached)
    # key by jobs AND warmth: the cold row measures simulation
    # throughput, the warm row cache-lookup throughput
    warmth = "warm" if cached == len(results) else "cold"
    perf.merge_report(path, "fuzz", {f"j{jobs}-{warmth}": {
        "seed": args.seed,
        "budget": len(results),
        "cached": cached,
        "cpus": os.cpu_count(),
        "wall_s": round(wall_s, 2),
        "scenarios_per_sec": round(len(results) / wall_s, 2),
    }})
    print(f"recorded fuzz throughput in {path}")


def run_fuzz_command(args: argparse.Namespace) -> int:
    try:
        specs = generate_batch(args.seed, args.budget)
    except ValueError as exc:
        raise SystemExit(f"repro fuzz run: {exc}") from exc
    cache = _cache(args)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    start = time.perf_counter()
    results, summary = run_campaign(
        specs, jobs=jobs, cache=cache, timeout=args.timeout,
        retries=args.retries)
    wall_s = time.perf_counter() - start

    _print_results(results)
    print()
    _print_judgments(summary)
    _summarise(results, wall_s, cache)

    counts = summary["counts"]
    status = 0 if counts["pass"] == len(results) else 1
    uncached = [r.spec.task_id for r in results if not r.cached]
    if args.assert_cached and uncached:
        print(f"\n--assert-cached: {len(uncached)} task(s) were "
              f"re-simulated: {', '.join(uncached[:8])}"
              + (" ..." if len(uncached) > 8 else ""))
        status = 1

    if args.output:
        _write_report(args.output, _report(
            results, command="fuzz", wall_s=wall_s, jobs=jobs,
            cache=cache,
            extra={"seed": args.seed, "budget": args.budget,
                   "judgments": summary["judgments"],
                   "counts": counts}))
    if args.manifest:
        _fuzz_manifest(args.manifest, results, summary, args, jobs,
                       wall_s, cache)
    if args.record_bench:
        _record_fuzz_bench(args.record_bench, results, args, jobs,
                           wall_s)
    return status


# ----------------------------------------------------------------------
# shrink
# ----------------------------------------------------------------------
def _load_spec(path: str) -> TaskSpec:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "spec" in data and isinstance(data["spec"], dict):
        data = data["spec"]  # corpus entry
    try:
        return TaskSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"repro fuzz shrink: {path} does not hold a "
                         f"task spec: {exc}") from exc


def run_shrink_command(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    cache = _cache(args)
    try:
        report = shrink(spec, cache=cache, timeout=args.timeout)
    except ValueError as exc:
        raise SystemExit(f"repro fuzz shrink: {exc}") from exc
    minimized: TaskSpec = report["spec"]
    ratio = report["size_after"] / report["size_before"]
    print(f"reproduced {report['signature']['classification']}"
          + (f" ({report['signature']['check']})"
             if report['signature']['check'] else ""))
    for step in report["steps"]:
        print(f"  - {step}")
    print(f"{report['size_before']} -> {report['size_after']} bytes "
          f"({ratio:.0%}) in {report['attempts']} attempts")
    if args.output:
        payload = {"spec": minimized.to_dict(),
                   "signature": report["signature"],
                   "steps": report["steps"],
                   "size_before": report["size_before"],
                   "size_after": report["size_after"]}
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def run_replay_command(args: argparse.Namespace) -> int:
    try:
        entries = load_corpus(args.corpus_dir)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro fuzz replay: {exc}") from exc
    if not entries:
        print(f"no corpus entries under {args.corpus_dir}")
        return 1
    cache = _cache(args)
    rows = []
    status = 0
    for path, entry in entries:
        ok, judgment = replay_entry(entry, cache=cache,
                                    timeout=args.timeout)
        expected = entry["expect"]["classification"]
        rows.append([entry["name"], expected,
                     judgment["classification"],
                     "ok" if ok else "DIVERGED",
                     ", ".join(judgment.get("checks", []))])
        if not ok:
            status = 1
    print(format_table(
        ["entry", "expected", "got", "verdict", "checks"], rows))
    print(f"\n{len(entries)} corpus entr"
          f"{'y' if len(entries) == 1 else 'ies'} replayed; "
          + ("all reproduce" if status == 0 else "DIVERGENCE detected"))
    return status
