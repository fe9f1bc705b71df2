"""The fast kernel against the evented reference on generated configs.

``repro.perf.golden.reference_problems`` builds a config twice and runs
one copy unbounded (inline train draining, absorbed deliveries) and one
with a ``max_events`` bound, which refuses both shortcuts; the two
traces must be equal.  The first configs of seeds 0 and 1 cover every
axis the generator draws: CBR and VBR background traffic, RM-cell loss,
on/off sessions, binary Phantom and the baselines.  The paper's seven
ATM configurations add what the generator does not draw: joins and
leaves, weighted sessions, E02's named on/off streams.  The six TCP
configurations, under drop-tail and Selective Discard, cover the TCP
router's inline train draining.  Horizons are capped to keep the suite
fast; ``benchmarks/perf/fast_vs_reference.py`` runs full horizons over
a larger batch and every suite row.
"""

from __future__ import annotations

import pytest

from repro.fuzz.gen import generate_batch
from repro.perf.golden import reference_problems
from repro.scenarios import tcp
from repro.scenarios.atm import (background_config, onoff_config,
                                 parking_config, rtt_config,
                                 staggered_config, transient_config,
                                 weighted_config)

SEEDS = (0, 1)
#: Configs per seed: enough for seeds 0 and 1 to cover every axis.
PER_SEED = 10
#: Horizon cap (s): past the first CBR start and several on/off cycles.
HORIZON = 0.08

SPECS = [spec for seed in SEEDS for spec in generate_batch(seed, PER_SEED)]

#: The paper's configurations at default parameters under Phantom, their
#: time keys scaled by 0.2 so that E08's join and leave and E23's CBR
#: window fall inside the horizon cap.  E02 keeps its registry seed.
PAPER = {
    "E01": (staggered_config(stagger=0.006, duration=0.05), 0),
    "E02": (onoff_config(duration=0.08), 7),
    "E03": (rtt_config(duration=0.06), 0),
    "E04": (parking_config(duration=0.06), 0),
    "E08": (transient_config(duration=0.08, join_at=0.02,
                             leave_at=0.05), 0),
    "E23": (background_config(cbr_start=0.03, cbr_stop=0.06,
                              duration=0.09), 0),
    "E25": (weighted_config(duration=0.06), 0),
}

INPUTS = [pytest.param(spec.config, spec.seed, id=spec.task_id)
          for spec in SPECS] + [pytest.param(config, seed, id=name)
                                for name, (config, seed) in PAPER.items()]

#: Horizon cap of the TCP configurations (s): past slow start and the
#: first losses and recoveries.
TCP_HORIZON = 3.0
TCP = [pytest.param(config(duration=TCP_HORIZON), policy,
                    id=f"{config.__name__}-{policy}")
       for config in (tcp.rtt_config, tcp.parking_config, tcp.many_config,
                      tcp.vegas_config, tcp.mixed_config,
                      tcp.two_way_config)
       for policy in ("drop-tail", "selective-discard")]


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


def test_the_paper_configs_exercise_their_schedules():
    assert PAPER["E08"][0]["sessions"][1]["stop"] < HORIZON
    assert PAPER["E23"][0]["cbr"][0]["stop"] < HORIZON


@pytest.mark.parametrize("config,seed", INPUTS)
def test_fast_run_equals_the_bounded_reference(config, seed):
    config = dict(config, duration=min(config["duration"], HORIZON))
    assert reference_problems(config, seed) == []


@pytest.mark.parametrize("config,policy", TCP)
def test_fast_tcp_run_equals_the_bounded_reference(config, policy):
    assert reference_problems(config, 0, policy=policy) == []
