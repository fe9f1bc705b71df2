"""Fast kernel against the evented reference on generated scenarios
(a step of the fuzz-smoke workflow job).

Each of the first ``--count`` configs of ``fuzz.gen.generate_batch``
for ``--seed`` is built twice and run to its horizon, once by the fast
kernel (an unbounded run, which drains cell trains inline and absorbs
deliveries into counting sinks) and once as the evented reference (a
run bounded by ``max_events``, which takes neither shortcut).  Any
difference in probe digests, counters, ``executed_events`` or the final
clock fails the run.  See :func:`repro.perf.golden.reference_problems`.

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

from repro.fuzz.gen import generate_batch
from repro.perf.golden import reference_problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=60)
    args = parser.parse_args(argv)
    failed = 0
    for spec in generate_batch(args.seed, args.count):
        problems = reference_problems(spec.config, spec.seed)
        status = "ok" if not problems else "DIFFERS"
        print(f"fast-vs-reference {status}: {spec.task_id}", flush=True)
        for line in problems:
            print(f"  {line}", flush=True)
        failed += bool(problems)
    print(f"fast-vs-reference: {failed} of {args.count} configs differ",
          flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
