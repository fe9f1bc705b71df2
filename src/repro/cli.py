"""Command-line interface: run any of the paper's configurations.

Examples::

    python -m repro list
    python -m repro run atm.staggered --set algorithm=phantom
    python -m repro run atm.onoff --set algorithm=capc --set duration=0.5
    python -m repro run tcp.rtt --set policy=selective-discard
    python -m repro maxmin --link l1=150 --link l2=150 \\
        --session long=l1,l2 --session s1=l1 --factor 5
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from repro.exec.entries import ATM_ALGORITHMS, TCP_POLICIES, resolve

# Every command imports what it runs, so `python -m repro suite` never
# loads the simulator, the fuzzer or the gateway.


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.exec.registry import all_scenarios

    # the registry names are the valid NAMEs for `repro run`, the
    # `--scenario` of `repro sweep` and the serve API's POST /jobs
    print("scenarios :", ", ".join(all_scenarios()))
    print("algorithms:", ", ".join(sorted(ATM_ALGORITHMS)))
    print("policies  :", ", ".join(sorted(TCP_POLICIES)))
    return 0


def _parse_pairs(pairs: Sequence[str], what: str) -> dict[str, str]:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise SystemExit(f"bad {what} spec {pair!r}; expected name=value")
        out[name] = value
    return out


def _cmd_maxmin(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.core.fairness import max_min_allocation

    capacities = {name: float(value) for name, value in
                  _parse_pairs(args.link, "link").items()}
    routes = {name: value.split(",") for name, value in
              _parse_pairs(args.session, "session").items()}
    weight = 1.0 / args.factor if args.factor else 0.0
    rates = max_min_allocation(capacities, routes, phantom_weight=weight)
    label = (f"phantom max-min (f={args.factor})" if args.factor
             else "classic max-min")
    print(format_table(["session", f"{label} rate"],
                       [[s, r] for s, r in sorted(rates.items())]))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.analysis import format_table

    report = perf.run_suite(args.workload or None, scale=args.scale,
                            repeats=args.repeats)
    rows = [[name, entry["wall_s"], entry["wall_per_sim_sec"],
             entry["events_per_sec"], entry["cells_per_sec"]]
            for name, entry in sorted(report["workloads"].items())]
    print(format_table(
        ["workload", "wall s", "wall/sim-s", "events/s", "cells/s"], rows))

    status = 0
    if args.check:
        try:
            baseline = perf.read_report(args.baseline)
        except FileNotFoundError:
            print(f"\nno baseline at {args.baseline!r}; nothing to check "
                  "against")
            return 1
        mismatches = perf.environment_mismatches(report, baseline)
        if mismatches:
            print(f"\nwarning: {args.baseline} was captured in a "
                  "different environment; wall-clock comparisons are "
                  "cross-machine:")
            for mismatch in mismatches:
                print(f"  {mismatch}")
        problems = perf.check_regression(report, baseline,
                                         factor=args.factor)
        if problems:
            print("\nperf regression against "
                  f"{args.baseline} (factor {args.factor:g}):")
            for problem in problems:
                print(f"  {problem}")
            status = 1
        else:
            print(f"\nwithin {args.factor:g}x of the {args.baseline} "
                  "baseline")
    if args.output:
        perf.merge_report(args.output, "workloads", report["workloads"],
                          python=report["python"],
                          machine=report["machine"])
        print(f"\nrecorded {len(report['workloads'])} workload(s) in "
              f"{args.output}")
        # companion run manifest, so every benchmark number carries its
        # provenance (parameters, git rev, platform)
        from repro import obs

        metrics = {f"{name}.{key}": value
                   for name, entry in sorted(report["workloads"].items())
                   for key, value in sorted(entry.items())
                   if isinstance(value, (int, float))}
        manifest = obs.build_manifest(
            command="perf",
            params={"workload": sorted(report["workloads"]),
                    "scale": args.scale, "repeats": args.repeats},
            metrics=metrics)
        manifest_path = os.path.splitext(args.output)[0] + ".manifest.json"
        obs.write_manifest(manifest_path, manifest)
        print(f"wrote {manifest_path}")
    return status


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import cli as obs_cli

    return obs_cli.run(args)


def _cmd_fluid(args: argparse.Namespace) -> int:
    from repro.fluid import cli as fluid_cli

    return fluid_cli.run(args)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.exec import cli as exec_cli

    return exec_cli.run_single_command(args)


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.exec import cli as exec_cli

    return exec_cli.run_suite_command(args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exec import cli as exec_cli

    return exec_cli.run_sweep_command(args)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import cli as fuzz_cli

    return fuzz_cli.run_command(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import cli as serve_cli

    return serve_cli.run(args)


def _add_maxmin_arguments(maxmin: argparse.ArgumentParser) -> None:
    maxmin.add_argument("--link", action="append", required=True,
                        metavar="NAME=CAPACITY")
    maxmin.add_argument("--session", action="append", required=True,
                        metavar="NAME=LINK1,LINK2,...")
    maxmin.add_argument("--factor", type=float, default=None,
                        help="utilization factor; omit for classic max-min")


def _add_perf_arguments(perf: argparse.ArgumentParser) -> None:
    perf.add_argument("--workload", action="append", default=None,
                      help="workload name (repeatable; default: all)")
    perf.add_argument("--scale", type=float, default=1.0,
                      help="multiplier on each workload's simulated "
                           "horizon (default 1.0)")
    perf.add_argument("--repeats", type=int, default=1,
                      help="best-of-N wall-time measurement (default 1)")
    perf.add_argument("--output", default="BENCH_perf.json",
                      help="report file to merge the measured rows into "
                           "(other rows and sections are kept); use '' "
                           "to skip writing")
    perf.add_argument("--check", action="store_true",
                      help="fail (exit 1) on wall/sim-sec regression "
                           "against --baseline")
    perf.add_argument("--baseline", default="BENCH_perf.json",
                      help="baseline report for --check")
    perf.add_argument("--factor", type=float, default=2.0,
                      help="allowed wall/sim-sec regression factor "
                           "(default 2.0)")


#: subcommand -> (help, what adds its arguments, what runs it).  The
#: package CLIs' adders are dotted names, imported only when their
#: subcommand's arguments are built.
COMMANDS: dict[str, tuple[str, Callable | str | None, Callable]] = {
    "list": ("list scenarios, algorithms, policies", None, _cmd_list),
    "run": ("run one registry scenario in-process; print its metrics "
            "and HealthReport, write its trace and manifest (exit 1 on "
            "a violated verdict)",
            "repro.exec.cli.add_run_arguments", _cmd_run),
    "maxmin": ("compute a (phantom) max-min allocation",
               _add_maxmin_arguments, _cmd_maxmin),
    "perf": ("measure hot-path throughput and refresh BENCH_perf.json "
             "(see docs/PERFORMANCE.md)", _add_perf_arguments, _cmd_perf),
    "obs": ("inspect, convert, validate, and diff traces and run "
            "manifests (see docs/OBSERVABILITY.md)",
            "repro.obs.cli.add_arguments", _cmd_obs),
    "fluid": ("benchmark and validate the fluid/hybrid simulation tier "
              "(see docs/FLUID.md)",
              "repro.fluid.cli.add_arguments", _cmd_fluid),
    "suite": ("run the experiment suite (E01-E26) across worker processes "
              "with result caching (see docs/EXECUTION.md)",
              "repro.exec.cli.add_suite_arguments", _cmd_suite),
    "sweep": ("run a declarative parameter grid for one scenario (see "
              "docs/EXECUTION.md)",
              "repro.exec.cli.add_sweep_arguments", _cmd_sweep),
    "fuzz": ("generate, judge, shrink, and replay seeded scenarios against "
             "the fair-share oracle (see docs/FUZZING.md)",
             "repro.fuzz.cli.add_arguments", _cmd_fuzz),
    "serve": ("run the simulation-as-a-service gateway with Phantom-MACR "
              "admission control (see docs/SERVING.md)",
              "repro.serve.cli.add_arguments", _cmd_serve),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.  Every subcommand is named, but only
    ``command`` gets its arguments, or every one when it is None."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phantom flow-control reproduction (SIGCOMM 1996)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, fn) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        subparser.set_defaults(fn=fn)
        if add_arguments is not None and command in (None, name):
            if isinstance(add_arguments, str):
                add_arguments = resolve(add_arguments)
            add_arguments(subparser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no options of its own, so a valid
    # invocation names its subcommand first
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
