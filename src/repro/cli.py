"""Command-line interface: run any of the paper's configurations.

Examples::

    python -m repro list
    python -m repro atm --scenario staggered --algorithm phantom
    python -m repro atm --scenario onoff --algorithm capc --duration 0.5
    python -m repro tcp --scenario rtt --policy selective-discard
    python -m repro maxmin --link l1=150 --link l2=150 \\
        --session long=l1,l2 --session s1=l1 --factor 5
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Sequence

from repro.exec.entries import ATM_ALGORITHMS, TCP_POLICIES, resolve

# Every table below holds names, and every command imports what it runs,
# so `python -m repro suite` never loads the simulator, the linter or the
# gateway.  ATM_ALGORITHMS and TCP_POLICIES are repro.exec.entries'
# tables: a flag value means what the same name means in a task spec.

#: ``repro atm --scenario`` value -> builder.
ATM_SCENARIOS = {
    "staggered": "repro.scenarios.atm.staggered_start",
    "onoff": "repro.scenarios.atm.on_off",
    "rtt": "repro.scenarios.atm.rtt_spread",
    "parking-lot": "repro.scenarios.atm.parking_lot",
    "transient": "repro.scenarios.atm.transient",
}

#: ``repro tcp --scenario`` value -> builder.
TCP_SCENARIOS = {
    "rtt": "repro.scenarios.tcp.rtt_fairness",
    "parking-lot": "repro.scenarios.tcp.tcp_parking_lot",
    "many": "repro.scenarios.tcp.many_flows",
    "vegas": "repro.scenarios.tcp.vegas_thresholds",
    "mixed": "repro.scenarios.tcp.mixed_stacks",
}


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.exec.registry import all_scenarios

    print("ATM scenarios :", ", ".join(sorted(ATM_SCENARIOS)))
    print("ATM algorithms:", ", ".join(sorted(ATM_ALGORITHMS)))
    print("TCP scenarios :", ", ".join(sorted(TCP_SCENARIOS)))
    print("TCP policies  :", ", ".join(sorted(TCP_POLICIES)))
    # the registry names are the valid `scenario` values for both
    # `repro suite/sweep` and the serve API's POST /jobs
    print("exec scenarios:", ", ".join(all_scenarios()))
    return 0


#: Registry-equivalent scenario names (repro.exec.entries) for the
#: CLI's flag-level names, so the HealthReport's oracle gating judges
#: `repro atm/tcp` runs exactly like `repro suite` tasks.
HEALTH_SCENARIOS = {
    "atm": {"staggered": "atm.staggered", "rtt": "atm.rtt",
            "onoff": "atm.onoff", "parking-lot": "atm.parking",
            "transient": "atm.transient"},
    "tcp": {"rtt": "tcp.rtt", "parking-lot": "tcp.parking",
            "many": "tcp.many", "vegas": "tcp.vegas",
            "mixed": "tcp.mixed"},
}


def _write_obs_artifacts(command: str, params: dict, run, tracer,
                         wall_s: float, trace_path: str,
                         manifest_path: str, seed=None,
                         health_scenario: str | None = None) -> None:
    """Write the run's trace (when recorded) and manifest (unless
    disabled with ``--manifest ''``), with the run's HealthReport
    folded into the manifest."""
    from repro import obs

    if tracer is not None and trace_path:
        obs.write_trace_jsonl(trace_path, tracer,
                              meta={"command": command, **params})
        print(f"\nwrote {trace_path} ({len(tracer.events)} events)")
    if manifest_path:
        registry = obs.registry_from_run(run)
        health = obs.build_health(run, scenario=health_scenario,
                                  params=params)
        manifest = obs.build_manifest(
            command=command, params=params, seed=seed,
            metrics=registry.summary(), wall_s=wall_s,
            trace_path=trace_path or None, health=health)
        obs.write_manifest(manifest_path, manifest)
        print(f"wrote {manifest_path} (health: {health['verdict']})")


def _cmd_atm(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, jain_index, print_series

    algorithm = resolve(ATM_ALGORITHMS[args.algorithm][0])
    scenario = resolve(ATM_SCENARIOS[args.scenario])
    kwargs = {"duration": args.duration}
    if args.scenario == "staggered" and args.sessions is not None:
        kwargs["n_sessions"] = args.sessions
    if args.scenario == "onoff" and args.seed is not None:
        kwargs["seed"] = args.seed
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        tracer = Tracer()
        kwargs["tracer"] = tracer
    # wall-clock read is the measurement itself (CLI layer, not
    # simulation code); the simulated outcome stays deterministic
    start = time.perf_counter()  # lint: disable=DET002
    run = scenario(algorithm, **kwargs)
    wall_s = time.perf_counter() - start  # lint: disable=DET002

    series = {f"ACR {vc} [Mb/s]": s.acr_probe
              for vc, s in run.net.sessions.items()}
    if run.macr_probe is not None:
        series["MACR [Mb/s]"] = run.macr_probe
    series["queue [cells]"] = run.queue_probe
    print_series(f"{args.scenario} under {args.algorithm}", series,
                 start=0.0, end=args.duration)

    rates = run.steady_rates()
    queue = run.queue_stats()
    print()
    print(format_table(
        ["session", "steady rate Mb/s"],
        [[vc, rate] for vc, rate in sorted(rates.items())]))
    print()
    print(f"Jain index : {jain_index(rates.values()):.4f}")
    print(f"utilisation: {run.utilization():.3f}")
    print(f"queue      : peak {queue['max']:.0f}, "
          f"mean {queue['mean']:.1f} cells")
    params = {"scenario": args.scenario, "algorithm": args.algorithm,
              "duration": args.duration}
    if args.sessions is not None:
        params["sessions"] = args.sessions
    _write_obs_artifacts("atm", params, run, tracer, wall_s,
                         args.trace, args.manifest,
                         seed=kwargs.get("seed"),
                         health_scenario=HEALTH_SCENARIOS["atm"]
                         [args.scenario])
    return 0


def _cmd_tcp(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, jain_index

    policy = resolve(TCP_POLICIES[args.policy][0])
    scenario = resolve(TCP_SCENARIOS[args.scenario])
    kwargs = {"duration": args.duration}
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        tracer = Tracer()
        kwargs["tracer"] = tracer
    # wall-clock read is the measurement itself (CLI layer); see _cmd_atm
    start = time.perf_counter()  # lint: disable=DET002
    run = scenario(policy(), **kwargs)
    wall_s = time.perf_counter() - start  # lint: disable=DET002

    rates = run.goodputs()
    print(format_table(
        ["flow", "goodput Mb/s"],
        [[f, r] for f, r in sorted(rates.items())]))
    print()
    print(f"Jain index  : {jain_index(rates.values()):.4f}")
    print(f"total       : {run.total_goodput():.2f} Mb/s")
    print(f"bottleneck q: peak {run.queue_stats()['max']:.0f}, "
          f"mean {run.queue_stats()['mean']:.1f} packets")
    params = {"scenario": args.scenario, "policy": args.policy,
              "duration": args.duration}
    _write_obs_artifacts("tcp", params, run, tracer, wall_s,
                         args.trace, args.manifest,
                         health_scenario=HEALTH_SCENARIOS["tcp"]
                         [args.scenario])
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


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import cli as lint_cli

    return lint_cli.run_from_args(args)


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
    if args.record:
        try:
            committed = perf.read_report(args.baseline)
        except (OSError, ValueError):
            committed = None
        if committed is not None:
            drifts = perf.history_drift(report, committed)
            if drifts:
                print(f"\nwarning: wall/sim-sec drift beyond "
                      f"{perf.HISTORY_WARN_FACTOR:g}x of "
                      f"{args.baseline}:")
                for drift in drifts:
                    print(f"  {drift}")
        entry = perf.append_history(args.history, report)
        print(f"\nrecorded {len(entry['workloads'])} workload(s) in "
              f"{args.history}")
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


def _add_atm_arguments(atm: argparse.ArgumentParser) -> None:
    atm.add_argument("--scenario", choices=sorted(ATM_SCENARIOS),
                     default="staggered")
    atm.add_argument("--algorithm", choices=sorted(ATM_ALGORITHMS),
                     default="phantom")
    atm.add_argument("--duration", type=float, default=0.3)
    atm.add_argument("--sessions", type=int, default=None,
                     help="session count (staggered scenario only)")
    atm.add_argument("--seed", type=int, default=None,
                     help="RNG seed (onoff scenario only)")
    atm.add_argument("--trace", default="",
                     help="record a JSONL trace to this path (enables "
                          "tracing; see docs/OBSERVABILITY.md)")
    atm.add_argument("--manifest", default="repro_atm.manifest.json",
                     help="run manifest path; '' to skip")


def _add_tcp_arguments(tcp: argparse.ArgumentParser) -> None:
    tcp.add_argument("--scenario", choices=sorted(TCP_SCENARIOS),
                     default="rtt")
    tcp.add_argument("--policy", choices=sorted(TCP_POLICIES),
                     default="selective-discard")
    tcp.add_argument("--duration", type=float, default=20.0)
    tcp.add_argument("--trace", default="",
                     help="record a JSONL trace to this path (enables "
                          "tracing; see docs/OBSERVABILITY.md)")
    tcp.add_argument("--manifest", default="repro_tcp.manifest.json",
                     help="run manifest path; '' to skip")


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
    perf.add_argument("--record", action="store_true",
                      help="append this measurement to --history and "
                           "warn (without failing) on >20%% wall/sim-sec "
                           "drift against --baseline")
    perf.add_argument("--history", default="BENCH_history.jsonl",
                      help="append-only measurement log for --record")


#: subcommand -> (help, what adds its arguments, what runs it).  The
#: package CLIs' adders are dotted names, imported only when their
#: subcommand's arguments are built.
COMMANDS: dict[str, tuple[str, Callable | str | None, Callable]] = {
    "list": ("list scenarios, algorithms, policies", None, _cmd_list),
    "atm": ("run an ATM scenario", _add_atm_arguments, _cmd_atm),
    "tcp": ("run a TCP scenario", _add_tcp_arguments, _cmd_tcp),
    "maxmin": ("compute a (phantom) max-min allocation",
               _add_maxmin_arguments, _cmd_maxmin),
    "lint": ("statically check determinism, unit-safety, and sim-API "
             "invariants (see docs/LINTING.md)",
             "repro.lint.cli.add_arguments", _cmd_lint),
    "perf": ("measure hot-path throughput and refresh BENCH_perf.json "
             "(see docs/PERFORMANCE.md)", _add_perf_arguments, _cmd_perf),
    "obs": ("record, inspect, convert, and diff traces and run manifests "
            "(see docs/OBSERVABILITY.md)",
            "repro.obs.cli.add_arguments", _cmd_obs),
    "fluid": ("run, validate, and benchmark the fluid/hybrid simulation "
              "tier (see docs/FLUID.md)",
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
