"""``repro obs`` — inspect, convert, validate, and diff observability
artifacts.

``repro run NAME --trace PATH --manifest PATH`` makes them: a JSONL
trace and a run manifest with the run's HealthReport inside.  ``repro
obs`` reads them.

Subcommands::

    repro obs summarize  per-kind / per-component event counts of a trace
    repro obs convert    JSONL trace -> Chrome trace_event JSON (Perfetto)
    repro obs validate   check a trace (and optionally a manifest) against
                         the schema invariants CI relies on
    repro obs diff       compare two run manifests (volatile environment
                         fields excluded unless --include-volatile)

See docs/OBSERVABILITY.md for the formats.
"""

from __future__ import annotations

import argparse

from repro.obs.chrome import write_chrome_trace
from repro.obs.manifest import (diff_manifests, read_manifest,
                                validate_manifest)
from repro.obs.trace import (read_trace_jsonl, summarize_events,
                             validate_trace_jsonl)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro obs`` subcommands on ``parser``."""
    sub = parser.add_subparsers(dest="obs_command", required=True)

    summarize = sub.add_parser(
        "summarize", help="per-kind/per-component counts of a trace")
    summarize.add_argument("trace", help="JSONL trace file")
    summarize.set_defaults(obs_fn=_cmd_summarize)

    convert = sub.add_parser(
        "convert", help="JSONL trace -> Chrome trace_event (Perfetto)")
    convert.add_argument("trace", help="JSONL trace file")
    convert.add_argument("--output", default=None,
                         help="output path (default: <trace>.chrome.json)")
    convert.set_defaults(obs_fn=_cmd_convert)

    validate = sub.add_parser(
        "validate", help="check trace (and manifest) schema invariants")
    validate.add_argument("trace", help="JSONL trace file")
    validate.add_argument("--manifest", default=None,
                          help="also validate this run manifest")
    validate.set_defaults(obs_fn=_cmd_validate)

    diff = sub.add_parser(
        "diff", help="compare two run manifests")
    diff.add_argument("manifest_a")
    diff.add_argument("manifest_b")
    diff.add_argument("--include-volatile", action="store_true",
                      help="also compare git rev / python / platform / "
                           "wall time")
    diff.set_defaults(obs_fn=_cmd_diff)


def run(args: argparse.Namespace) -> int:
    return args.obs_fn(args)


def _cmd_summarize(args: argparse.Namespace) -> int:
    header, events = read_trace_jsonl(args.trace)
    summary = summarize_events(events)
    print(f"trace   : {args.trace}")
    print(f"schema  : {header.get('schema')} v{header.get('version')}")
    print(f"events  : {summary['events']}")
    if summary["events"]:
        print(f"span    : {summary['first_ts']:.6f} .. "
              f"{summary['last_ts']:.6f} s")
    print("kinds   :")
    for kind, count in summary["kinds"].items():
        print(f"  {kind:<24} {count}")
    print("components:")
    for comp, count in summary["components"].items():
        print(f"  {comp:<24} {count}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    output = args.output or f"{args.trace}.chrome.json"
    _header, events = read_trace_jsonl(args.trace)
    write_chrome_trace(output, events)
    print(f"wrote {output} ({len(events)} events); load it in "
          "https://ui.perfetto.dev or about://tracing")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = [f"{args.trace}: {p}"
                for p in validate_trace_jsonl(args.trace)]
    if args.manifest:
        try:
            manifest = read_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            problems.append(f"{args.manifest}: unreadable ({exc})")
        else:
            problems.extend(f"{args.manifest}: {p}"
                            for p in validate_manifest(manifest))
    if problems:
        for problem in problems:
            print(problem)
        return 1
    checked = args.trace + (f" and {args.manifest}" if args.manifest
                            else "")
    print(f"{checked}: ok")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = read_manifest(args.manifest_a)
    b = read_manifest(args.manifest_b)
    diffs = diff_manifests(a, b, include_volatile=args.include_volatile)
    if diffs:
        print(f"{args.manifest_a} vs {args.manifest_b}:")
        for line in diffs:
            print(f"  {line}")
        return 1
    print("manifests match")
    return 0
