"""One seeded command for the end-to-end benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--trace [0|1]] [--quick] [--out FILE] [--write-expected]

Runs each workload (all six by default) in a fresh process of
``workloads.py``, prints every metric by name with its unit and sample
count, checks the outputs, and exits non-zero when a check fails.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics ``BENCHMARK.json`` lists, or with ``--trace`` its per-layer
metrics (with several workloads, each name is prefixed by the
workload's).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from workloads import ROOT, SRC, WORKLOADS, program_env

HERE = Path(__file__).resolve().parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected"
#: A workload process still running after this long is killed.
CHILD_TIMEOUT_S = 170.0
#: Measured seconds per workload under ``--quick``.
QUICK_SECONDS = 2.0
#: Layer self-times must add up to the traced wall time within this.
LAYER_SUM_TOLERANCE = 0.05


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the seeded end-to-end benchmark workloads.")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed every input is generated from")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only as BENCHMARK.json's "
                             "run_seconds: the run length is fixed")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="also run each workload profiled and report "
                             "its per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scale: small inputs, no "
                             "expected-output comparison")
    parser.add_argument("--out", default="",
                        help="write the full result JSON here (read by "
                             "compare.py); with --trace, the Chrome "
                             "traces go beside it")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's outputs as the expected "
                             "outputs of its seed")
    return parser.parse_args(argv)


def environment() -> dict[str, Any]:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None if proc.returncode == 0 else None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0]}


def run_workload(name: str, args: argparse.Namespace, seconds: float,
                 scratch: Path) -> dict[str, Any]:
    """One fresh process for one workload; returns what it measured."""
    workdir = scratch / name
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    command = [sys.executable, str(HERE / "workloads.py"), name,
               "--seed", str(args.seed), "--seconds", repr(seconds),
               "--trace", str(args.trace), "--workdir", str(workdir / "work"),
               "--result", str(result)]
    if args.quick:
        command.append("--quick")
    if args.trace and args.out:
        out = Path(args.out)
        command += ["--trace-file",
                    str(out.with_name(f"{out.stem}.{name}.trace.json"))]
    # its own process group, so nothing it starts can outlive it
    proc = subprocess.Popen(command, cwd=ROOT, env=program_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not result.is_file():
        why = ("timed out" if code is None
               else f"exited with status {code}")
        return {"workload": name, "attempted": 1, "failed": 1,
                "problems": [f"workload process {why}"], "metrics": {}}
    return json.loads(result.read_text(encoding="utf-8"))


def evaluate(data: dict[str, Any], args: argparse.Namespace) -> None:
    """Compare with the expected outputs and settle ``correct``."""
    expected = EXPECTED / f"{data['workload']}-seed{args.seed}.json"
    data["sim_identical"] = None
    if (not args.quick and not args.write_expected and expected.is_file()
            and data.get("outputs") is not None):
        same = json.loads(expected.read_text(encoding="utf-8")) \
            == data["outputs"]
        data["sim_identical"] = same
        if not same:
            data["problems"].append(
                f"outputs differ from {expected.relative_to(ROOT)}")
    if "layers" in data:
        data["layer_sum_frac"] = (sum(data["layers"].values())
                                  / data["traced_wall_s"])
    data["correct"] = not data["problems"] and data["failed"] == 0


def print_workload(data: dict[str, Any], per_layer: list[dict]) -> None:
    identical = {None: "n/a", True: "yes", False: "NO"}[
        data.get("sim_identical")]
    print(f"\n{data['workload']}: one unit = one {data.get('unit', '?')}; "
          f"{data['attempted']} attempted, {data['failed']} failed; "
          f"correct {'yes' if data['correct'] else 'NO'}; "
          f"sim_identical {identical}")
    for name, metric in sorted(data["metrics"].items()):
        print(f"  {name:<24} {metric['value']!r} {metric['unit']} "
              f"(n={metric['samples']})")
    for problem in data["problems"]:
        print(f"  FAILED: {problem}")
    if "per_layer" not in data:
        return
    values = data["per_layer"]
    print(f"  -- traced: {data['traced_wall_s']:.3f} s, layers add up to "
          f"{data['layer_sum_frac']:.1%} of it")
    for metric in sorted(per_layer, key=lambda m: -values.get(m["name"], 0)
                         if m["name"].endswith(".self_frac") else 0):
        value = values.get(metric["name"])
        if not value:
            continue
        note = ""
        if metric["name"].endswith(".self_frac"):
            note = f" ({values[metric['name'][:-5] + '_s']:.4f} s self)"
        print(f"  {metric['name']:<32} {value!r} {metric['unit']}{note}")
    if abs(1.0 - data["layer_sum_frac"]) > LAYER_SUM_TOLERANCE:
        print(f"  WARNING: layer self-times are off the traced wall time "
              f"by more than {LAYER_SUM_TOLERANCE:.0%}")
    if data["unmapped_modules"]:
        print(f"  WARNING: modules in no layer: "
              f"{', '.join(data['unmapped_modules'])}")


def summary_line(results: dict[str, dict[str, Any]],
                 metrics: list[dict], traced: bool) -> dict[str, Any]:
    def values(data: dict[str, Any]) -> dict[str, Any]:
        out = {}
        for metric in metrics:
            if traced:
                value = data.get("per_layer", {}).get(metric["name"], 0)
            else:
                value = data["metrics"].get(metric["name"], {}).get("value")
            out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        return out

    if len(results) == 1:
        combined = values(next(iter(results.values())))
    else:
        combined = {f"{name}.{key}": value
                    for name, data in results.items()
                    for key, value in values(data).items()}
    return {"correct": all(d["correct"] for d in results.values()),
            "attempted": sum(d["attempted"] for d in results.values()),
            "failed": sum(d["failed"] for d in results.values()),
            "metrics": combined}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_expected and args.quick:
        print("run.py: --write-expected needs full-scale inputs",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"run.py: --seconds must be BENCHMARK.json's run_seconds "
              f"({spec['run_seconds']}); the run length is fixed",
              file=sys.stderr)
        return 2
    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    env = environment()
    if env["loadavg_1m"] > (env["nproc"] or 1):
        print(f"warning: 1-minute load average {env['loadavg_1m']:.2f} is "
              f"above the {env['nproc']} CPUs; timings will be noisy",
              file=sys.stderr)

    results: dict[str, dict[str, Any]] = {}
    # caches, reports and profiles: inside the checkout, gone at exit
    with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as tmp:
        for name in args.workload or list(WORKLOADS):
            results[name] = run_workload(name, args, seconds, Path(tmp))
            evaluate(results[name], args)

    for data in results.values():
        print_workload(data, spec["per_layer"])
        if args.write_expected and data.get("outputs") is not None:
            EXPECTED.mkdir(exist_ok=True)
            path = EXPECTED / f"{data['workload']}-seed{args.seed}.json"
            path.write_text(json.dumps(data["outputs"], indent=1,
                                       sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"  wrote {path.relative_to(ROOT)}")
    if args.out:
        report = {"schema": "benchmarks.e2e.result", "version": 1,
                  "seed": args.seed, "seconds": seconds,
                  "quick": args.quick, "trace": bool(args.trace), **env,
                  "workloads": {name: {k: v for k, v in data.items()
                                       if k != "outputs"}
                                for name, data in results.items()}}
        Path(args.out).write_text(json.dumps(report, indent=1,
                                             sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"\nwrote {args.out}")
    line = summary_line(results, spec["per_layer" if args.trace
                                     else "end_to_end"], bool(args.trace))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
