"""Fast kernel against the evented reference on generated scenarios
and the paper's ATM and TCP experiments (a step of the fuzz-smoke
workflow job).

Each of the first ``--count`` configs of ``fuzz.gen.generate_batch``
for ``--seed``, then every ATM and TCP row of the E01-E26 suite (its
configuration with its algorithm and seed, or its router policy, as
the registry entry renders it, at full horizon), is built twice and run
to its horizon, once by the fast kernel (an unbounded run, which drains
cell and packet trains inline and absorbs deliveries into counting
sinks) and once as the evented reference (a run bounded by
``max_events``, which takes neither shortcut).  Any difference in probe
digests, counters, ``executed_events`` or the final clock fails the
run.  See :func:`repro.perf.golden.reference_problems`.

Named without the ``bench_`` prefix so pytest does not collect it.
Run directly::

    PYTHONPATH=src python benchmarks/perf/fast_vs_reference.py --seed 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exec.registry import all_scenarios
from repro.exec.spec import derive_seed
from repro.exec.suite import SUITE
from repro.fuzz.gen import generate_batch
from repro.perf.golden import reference_problems
from repro.scenarios import atm, tcp

#: Registry entry -> the configuration it renders.
CONFIGS = {
    "atm.staggered": atm.staggered_config,
    "atm.onoff": atm.onoff_config,
    "atm.rtt": atm.rtt_config,
    "atm.parking": atm.parking_config,
    "atm.transient": atm.transient_config,
    "atm.background": atm.background_config,
    "atm.weighted": atm.weighted_config,
    "tcp.rtt": tcp.rtt_config,
    "tcp.parking": tcp.parking_config,
    "tcp.many": tcp.many_config,
    "tcp.vegas": tcp.vegas_config,
    "tcp.mixed": tcp.mixed_config,
    "tcp.twoway": tcp.two_way_config,
}


def suite_inputs(seed: int):
    """``(task id, config, seed, policy)`` of every ATM and TCP suite
    row: an ATM entry's config with its algorithm keys and the seed a
    suite task gets, or a TCP entry's config and its router policy."""
    entries = all_scenarios()
    for task_id, scenario, params in SUITE:
        kind = entries[scenario].kind
        if kind not in ("atm", "tcp"):
            continue
        options = dict(params)
        if kind == "tcp":
            policy = options.pop("policy", "selective-discard")
            yield task_id, CONFIGS[scenario](**options), 0, policy
            continue
        algorithm = {key: options.pop(key)
                     for key in ("algorithm", "algorithm_params")
                     if key in options}
        config = dict(CONFIGS[scenario](**options), **algorithm)
        yield task_id, config, (derive_seed(seed, task_id)
                                if entries[scenario].takes_seed else 0), None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=60)
    args = parser.parse_args(argv)
    inputs = [(spec.task_id, spec.config, spec.seed, None)
              for spec in generate_batch(args.seed, args.count)]
    inputs += suite_inputs(args.seed)
    failed = 0
    for task_id, config, seed, policy in inputs:
        problems = reference_problems(config, seed, policy=policy)
        status = "ok" if not problems else "DIFFERS"
        print(f"fast-vs-reference {status}: {task_id}", flush=True)
        for line in problems:
            print(f"  {line}", flush=True)
        failed += bool(problems)
    print(f"fast-vs-reference: {failed} of {len(inputs)} configs differ",
          flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
