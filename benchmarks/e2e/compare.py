"""Paired A/B comparison of two source trees on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py --base REF [--change REF]
        [--pairs N] [--workload NAME]... [--seed N] [--out FILE]

Both sides run *this* checkout's benchmark (``benchmarks/e2e`` and
``BENCHMARK.json``) against their own ``src/``.  ``--base`` and
``--change`` are git revisions, exported with ``git archive`` into a
temporary directory; without ``--change`` the change side is this
checkout's working tree.  Both run for ``BENCHMARK.json``'s
``run_seconds``.  Pair *i* runs both sides with
seed ``seed + i``, the base first in even pairs and the change first in
odd ones.

For each workload and end-to-end metric the report gives each side's
median and quartiles, the change's win fraction over the pairs (ties
count for neither) and a verdict against the metric's bound in
``BENCHMARK.json``:

``improved``
    over at least ten pairs, the change wins at least nine tenths of
    them and the medians differ by more than the base's own quartile
    spread;
``worse``
    the change's median is worse than the base's by more than the bound;
``unresolved``
    the base's own quartile spread is wider than the bound, and not
    every change run beats every base run;
``unchanged``
    otherwise.

Exits 1 when any verdict is ``worse`` or any run failed its checks.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any

from run import BENCHMARK, HERE
from workloads import ROOT, WORKLOADS

SIDES = ("base", "change")
#: Fewest pairs that can support an ``improved`` verdict.
MIN_PAIRS = 10


def export_tree(ref: str | None, dest: Path) -> None:
    """``dest`` gets ``ref``'s ``src/`` (the working tree's when None)
    and this checkout's benchmark files."""
    if ref is None:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
            capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    shutil.copytree(HERE, dest / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(BENCHMARK, dest / "BENCHMARK.json")


def run_side(tree: Path, args: argparse.Namespace, seed: int,
             out: Path) -> dict[str, Any]:
    command = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
               "--seed", str(seed), "--out", str(out)]
    for name in args.workload or ():
        command += ["--workload", name]
    subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))["workloads"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, win fraction) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    win_frac = wins / len(base)
    q1, median, q3 = quartiles(base)
    change_median = statistics.median(change)
    spread = q3 - q1
    if (len(base) >= MIN_PAIRS and win_frac >= 0.9
            and sign * (median - change_median) > spread):
        return "improved", win_frac
    if sign * (change_median - median) > bound * abs(median):
        return "worse", win_frac
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if spread > bound * abs(median) and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def report(runs: dict[str, list[dict[str, Any]]],
           end_to_end: list[dict[str, Any]]) -> tuple[list[dict], bool]:
    """One row per (workload, metric), and whether every run passed."""
    rows = []
    passed = all(data.get("correct", False)
                 for side in SIDES for run in runs[side]
                 for data in run.values())
    for workload in runs["base"][0]:
        for metric in end_to_end:
            name = metric["name"]
            # a pair counts only when both of its runs measured the metric
            pairs = [(b[workload]["metrics"][name]["value"],
                      c[workload]["metrics"][name]["value"])
                     for b, c in zip(runs["base"], runs["change"])
                     if name in b[workload]["metrics"]
                     and name in c[workload]["metrics"]]
            if not pairs:
                continue
            values = dict(zip(SIDES, map(list, zip(*pairs))))
            label, wins = verdict(values["base"], values["change"],
                                  metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "verdict": label,
                         "win_frac": wins,
                         **{side: dict(zip(("q1", "median", "q3"),
                                           quartiles(values[side])))
                            for side in SIDES}})
    return rows, passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired A/B runs of the end-to-end benchmark.")
    parser.add_argument("--base", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--change", default=None,
                        help="git revision of the change side (default: "
                             "this checkout's working tree)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="base/change pairs (default 10; fewer "
                             "cannot support a claimed gain)")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the first pair (pair i: seed + i)")
    parser.add_argument("--out", default="",
                        help="write the rows as JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]

    runs: dict[str, list[dict[str, Any]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="e2e-compare-") as tmp:
        scratch = Path(tmp)
        for side, ref in zip(SIDES, (args.base, args.change)):
            export_tree(ref, scratch / side)
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                out = scratch / f"{side}-{i}.json"
                runs[side].append(run_side(scratch / side, args,
                                           args.seed + i, out))
                print(f"pair {i + 1}/{args.pairs}: {side} done",
                      file=sys.stderr)

    rows, passed = report(runs, end_to_end)
    print(f"{'workload':<15} {'metric':<16} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>5}  verdict")
    for row in rows:
        cells = [f"{row[side]['median']:.5g} [{row[side]['q1']:.5g}, "
                 f"{row[side]['q3']:.5g}] {row['unit']}" for side in SIDES]
        print(f"{row['workload']:<15} {row['metric']:<16} {cells[0]:<34} "
              f"{cells[1]:<34} {row['win_frac']:>5.0%}  {row['verdict']}")
    if not passed:
        print("some runs failed their correctness checks; see --out")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"base": args.base, "change": args.change or "working tree",
             "pairs": args.pairs, "seed": args.seed, "all_correct": passed,
             "rows": rows}, indent=1) + "\n", encoding="utf-8")
    worse = any(row["verdict"] == "worse" for row in rows)
    return 1 if worse or not passed else 0


if __name__ == "__main__":
    sys.exit(main())
