"""``repro fluid`` — benchmark and validate the fluid tier.

A single fluid scenario runs like any other registry scenario:
``repro run fluid.staggered``.

Subcommands::

    repro fluid many      the scale scenario: a million-flow trunk,
                          wall-clock vs simulated-time report
    repro fluid hybrid    packet foreground + fluid background; with
                          --twin, also run the all-packet twin and
                          report the speedup
    repro fluid validate  packet-vs-fluid accuracy suite against the
                          committed tolerances (docs/FLUID.md)

``many`` and ``hybrid`` accept ``--record-bench BENCH_perf.json`` to
merge their measurements under the report's ``fluid`` key.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.analysis import format_table
from repro.fluid import scenarios
from repro.fluid.hybrid import hybrid_staggered, packet_twin
from repro.fluid.validate import failures, validation_rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro fluid`` subcommands on ``parser``."""
    sub = parser.add_subparsers(dest="fluid_command", required=True)

    many = sub.add_parser(
        "many", help="million-flow scale scenario with wall-clock report")
    many.add_argument("--cohorts", type=int, default=1000)
    many.add_argument("--flows-per-cohort", type=int, default=1000)
    many.add_argument("--greedy", type=int, default=100)
    many.add_argument("--background-load", type=float, default=0.7)
    many.add_argument("--duration", type=float, default=1.0)
    many.add_argument("--link-rate", type=float, default=10000.0)
    many.add_argument("--record-bench", default="",
                      help="merge the measurement into this "
                           "BENCH_perf.json report")
    many.set_defaults(fluid_fn=_cmd_many)

    hybrid = sub.add_parser(
        "hybrid", help="packet foreground over a fluid background")
    hybrid.add_argument("--foreground", type=int, default=2)
    hybrid.add_argument("--background", type=int, default=500)
    hybrid.add_argument("--background-demand-mbps", type=float,
                        default=0.2)
    hybrid.add_argument("--duration", type=float, default=0.25)
    hybrid.add_argument("--link-rate", type=float, default=150.0)
    hybrid.add_argument("--twin", action="store_true",
                        help="also run the all-packet twin and report "
                             "the hybrid speedup")
    hybrid.add_argument("--record-bench", default="",
                        help="merge the measurement into this "
                             "BENCH_perf.json report (needs --twin)")
    hybrid.set_defaults(fluid_fn=_cmd_hybrid)

    validate = sub.add_parser(
        "validate", help="packet-vs-fluid accuracy suite")
    validate.set_defaults(fluid_fn=_cmd_validate)


def run(args: argparse.Namespace) -> int:
    return args.fluid_fn(args)


def _cmd_many(args: argparse.Namespace) -> int:
    flows = args.cohorts * args.flows_per_cohort + args.greedy
    print(f"stepping {flows:,} flows for {args.duration:g} simulated "
          f"seconds ...")
    start = time.perf_counter()
    result = scenarios.many_flows(
        cohorts=args.cohorts, flows_per_cohort=args.flows_per_cohort,
        greedy=args.greedy, background_load=args.background_load,
        duration=args.duration, link_rate=args.link_rate)
    wall_s = time.perf_counter() - start

    queue = result.queue_stats()
    realtime = args.duration / wall_s if wall_s else float("inf")
    print(f"wall        : {wall_s:.3f} s  "
          f"({realtime:.2f}x real time, {os.cpu_count()} cpu)")
    print(f"utilisation : {result.utilization():.4f}")
    print(f"queue       : peak {queue['max']:.0f}, "
          f"mean {queue['mean']:.1f} cells")
    greedy_rates = [c.send_mbps for c in result.net.cohorts
                    if c.name.startswith("fg")]
    if greedy_rates:
        mean = sum(greedy_rates) / len(greedy_rates)
        print(f"greedy rate : {mean:.3f} Mb/s mean over "
              f"{len(greedy_rates)} flows (final step)")
    if args.record_bench:
        _merge_bench(args.record_bench, "million", {
            "flows": flows,
            "sim_seconds": args.duration,
            "wall_s": round(wall_s, 3),
            "sim_per_wall": round(realtime, 2),
            "utilization": round(result.utilization(), 4),
            "cpus": os.cpu_count(),
        })
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from repro.core.params import PhantomParams

    # the default 5% grant floor is a 150 Mb/s-class constant; at wider
    # trunks it must stay well under the foreground share (docs/FLUID.md)
    phantom = (PhantomParams(grant_floor_fraction=0.001)
               if args.link_rate > 1000.0 else None)
    kwargs = dict(foreground=args.foreground, background=args.background,
                  background_demand_mbps=args.background_demand_mbps,
                  duration=args.duration, link_rate=args.link_rate,
                  phantom=phantom)
    print(f"hybrid: {args.foreground} packet sessions + "
          f"{args.background:,} fluid background flows ...")
    start = time.perf_counter()
    hybrid = hybrid_staggered(**kwargs)
    hybrid_wall = time.perf_counter() - start
    fg = hybrid.foreground_rates()
    print(format_table(
        ["session", "hybrid steady rate Mb/s"],
        [[vc, rate] for vc, rate in sorted(fg.items())]))
    print(f"wall: {hybrid_wall:.3f} s")

    if not args.twin:
        return 0
    print(f"\npacket twin: {args.background:,} background flows as CBR "
          "streams ...")
    start = time.perf_counter()
    twin = packet_twin(**kwargs)
    twin_wall = time.perf_counter() - start
    twin_fg = {vc: rate for vc, rate in twin.steady_rates().items()
               if not vc.startswith("bg")}
    print(format_table(
        ["session", "packet steady rate Mb/s"],
        [[vc, rate] for vc, rate in sorted(twin_fg.items())]))
    speedup = twin_wall / hybrid_wall if hybrid_wall else float("inf")
    print(f"wall: {twin_wall:.3f} s -> hybrid speedup {speedup:.0f}x")
    if args.record_bench:
        _merge_bench(args.record_bench, "hybrid_e01", {
            "foreground": args.foreground,
            "background_flows": args.background,
            "sim_seconds": args.duration,
            "hybrid_wall_s": round(hybrid_wall, 3),
            "packet_wall_s": round(twin_wall, 3),
            "speedup": round(speedup, 1),
            "hybrid_fg_mbps": {vc: round(rate, 3)
                               for vc, rate in sorted(fg.items())},
            "packet_fg_mbps": {vc: round(rate, 3)
                               for vc, rate in sorted(twin_fg.items())},
            "cpus": os.cpu_count(),
        })
    return 0


def _merge_bench(path: str, key: str, entry: dict) -> None:
    """Merge one measurement under the report's ``fluid`` key."""
    from repro import perf

    perf.merge_report(path, "fluid", {key: entry})
    print(f"recorded fluid.{key} in {path}")


def _cmd_validate(args: argparse.Namespace) -> int:
    rows = validation_rows()
    print(format_table(
        ["scenario", "metric", "packet", "fluid", "error", "tolerance"],
        [[row["scenario"], row["metric"], round(row["packet"], 4),
          round(row["fluid"], 4), round(row["error"], 4),
          f"{row['tolerance_key']} {row['tolerance']:g}"]
         for row in rows]))
    problems = failures(rows)
    if problems:
        print(f"\n{len(problems)} metric(s) out of tolerance:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"\nall {len(rows)} metrics within the committed tolerances")
    return 0
