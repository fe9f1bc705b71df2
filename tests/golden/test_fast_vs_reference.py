"""The fast kernel against the evented reference on generated configs.

``repro.perf.golden.reference_problems`` builds a config twice and runs
one copy unbounded (inline train draining, absorbed deliveries) and one
with a ``max_events`` bound, which refuses both shortcuts; the two
traces must be equal.  The first configs of seeds 0 and 1 cover every
axis the generator draws: CBR and VBR background traffic, RM-cell loss,
on/off sessions, binary Phantom and the baselines.  Horizons are capped
to keep the suite fast; ``benchmarks/perf/fast_vs_reference.py`` runs
full horizons over a larger batch.
"""

from __future__ import annotations

import pytest

from repro.fuzz.gen import generate_batch
from repro.perf.golden import reference_problems

SEEDS = (0, 1)
#: Configs per seed: enough for seeds 0 and 1 to cover every axis.
PER_SEED = 10
#: Horizon cap (s): past the first CBR start and several on/off cycles.
HORIZON = 0.08

SPECS = [spec for seed in SEEDS for spec in generate_batch(seed, PER_SEED)]


def test_the_batch_covers_every_generated_axis():
    configs = [spec.config for spec in SPECS]
    algorithms = {config["algorithm"] for config in configs}
    assert {"phantom", "phantom-binary"} <= algorithms
    assert algorithms - {"phantom", "phantom-binary"}, "no baseline"
    assert any(c.get("vbr") for c in configs)
    assert any(cbr["start"] < HORIZON
               for c in configs for cbr in c.get("cbr") or ())
    assert any(c.get("rm_loss") for c in configs)
    assert any(s.get("onoff") for c in configs for s in c["sessions"])


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.task_id)
def test_fast_run_equals_the_bounded_reference(spec):
    config = dict(spec.config,
                  duration=min(spec.config["duration"], HORIZON))
    assert reference_problems(config, spec.seed) == []
