#!/usr/bin/env python
"""Regenerate the paper's figure data as CSV files.

Runs the core ATM experiments under every algorithm and writes one CSV
per (experiment, algorithm) into ``--outdir`` (default ``./figures``),
each holding the aligned time series the corresponding figure plots:
per-session ACR, MACR/ERS, and queue length.  Plot them with any stack.

Run:  python examples/make_figures.py [--outdir DIR] [--duration 0.4]
      (~2 minutes at the default duration)
"""

import argparse
from pathlib import Path

from repro import (AprcAlgorithm, CapcAlgorithm, EprcaAlgorithm,
                   PhantomAlgorithm)
from repro.analysis import write_csv
from repro.baselines import EricaAlgorithm
from repro.core import BinaryPhantomAlgorithm
from repro.scenarios import (build_atm, onoff_config, parking_config,
                             rtt_config, staggered_config)

ALGORITHMS = {
    "phantom": PhantomAlgorithm,
    "phantom-binary": BinaryPhantomAlgorithm,
    "eprca": EprcaAlgorithm,
    "aprc": AprcAlgorithm,
    "capc": CapcAlgorithm,
    "erica": EricaAlgorithm,
}

#: name -> the paper configuration it plots (a scenario config).
SCENARIOS = {
    "staggered": staggered_config,
    "onoff": onoff_config,
    "rtt": rtt_config,
    "parking_lot": parking_config,
}


def export(run, path: Path, duration: float) -> None:
    series = {f"acr_{vc}": s.acr_probe
              for vc, s in run.net.sessions.items()}
    if run.macr_probe is not None:
        series["macr"] = run.macr_probe
    series["queue"] = run.queue_probe
    with path.open("w", newline="") as out:
        write_csv(out, series, start=0.0, end=duration)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("figures"))
    parser.add_argument("--duration", type=float, default=0.4)
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        action="append",
                        help="restrict to these scenarios (default: all)")
    parser.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                        action="append",
                        help="restrict to these algorithms (default: all)")
    args = parser.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    scenarios = args.scenario or sorted(SCENARIOS)
    algorithms = args.algorithm or sorted(ALGORITHMS)
    written = []
    for scenario_name in scenarios:
        for algorithm_name in algorithms:
            # seed 7 draws E02's on/off phases
            run = build_atm(SCENARIOS[scenario_name](duration=args.duration),
                            algorithm_factory=ALGORITHMS[algorithm_name],
                            seed=7)
            path = args.outdir / f"{scenario_name}-{algorithm_name}.csv"
            export(run, path, args.duration)
            written.append(path)
            print(f"wrote {path}")
    print(f"\n{len(written)} files in {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
