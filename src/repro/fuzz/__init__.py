"""Seeded scenario fuzzing, judged by the health oracle.

The subsystem turns the invariants :mod:`repro.obs.health` enforces on
13 hand-written scenarios into properties checked over a *search space*:

* :mod:`repro.fuzz.gen` — samples self-describing scenario configs from
  a single integer seed (topology family, session mix, schedules,
  cross-traffic, loss, algorithm + jittered gains) and wraps them in
  inline-config :class:`repro.exec.spec.TaskSpec`\\ s;
* :mod:`repro.fuzz.oracle` — reads a config's topology view and solves
  it with :func:`repro.obs.health.solve_oracle`, the one judge that
  also serves built networks;
* :mod:`repro.fuzz.harness` — runs batches cache-first through
  :func:`repro.exec.run_tasks` and classifies each outcome (pass /
  violated invariant / crash / timeout), gating the oracle properties
  with :mod:`repro.obs.health`'s gate table plus the config-only gates;
* :mod:`repro.fuzz.shrink` — greedily minimizes a failing config while
  the failure reproduces;
* :mod:`repro.fuzz.corpus` — the committed regression corpus under
  ``tests/fuzz/corpus/`` that tier-1 replays.
"""

from repro.fuzz.corpus import (CORPUS_SCHEMA, corpus_dir, load_corpus,
                               load_entry, replay_entry, write_entry)
from repro.fuzz.gen import generate_batch, generate_config
from repro.fuzz.harness import (classify_result, judge_batch,
                                oracle_eligibility, run_campaign)
from repro.fuzz.oracle import oracle_for_config
from repro.fuzz.shrink import shrink

__all__ = [
    "CORPUS_SCHEMA", "classify_result", "corpus_dir", "generate_batch",
    "generate_config", "judge_batch", "load_corpus", "load_entry",
    "oracle_eligibility", "oracle_for_config", "replay_entry",
    "run_campaign", "shrink", "write_entry",
]
