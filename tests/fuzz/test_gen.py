"""Seeded generation: determinism, prefix stability, config validity."""

from random import Random

import pytest

from repro.exec.spec import derive_seed
from repro.fuzz.gen import (SCENARIO, generate_batch, generate_config,
                            session_probes)
from repro.scenarios.config import validate_config


def test_same_seed_same_batch():
    first = generate_batch(7, 12)
    second = generate_batch(7, 12)
    assert [s.canonical() for s in first] \
        == [s.canonical() for s in second]


def test_different_seeds_differ():
    assert generate_batch(0, 1)[0].canonical() \
        != generate_batch(1, 1)[0].canonical()


def test_budget_only_extends_the_batch():
    # task i draws from its own stream, so a bigger budget shares the
    # smaller batch as an exact prefix — corpus origins stay stable
    short = generate_batch(3, 5)
    long = generate_batch(3, 20)
    assert [s.canonical() for s in short] \
        == [s.canonical() for s in long[:5]]


def test_batch_specs_are_self_describing():
    for spec in generate_batch(11, 8):
        assert spec.scenario == SCENARIO
        assert spec.config is not None
        assert spec.seed == derive_seed(11, spec.task_id)
        assert spec.probes == session_probes(spec.config)


def test_every_generated_config_validates():
    # the builder's own validator is the contract: no generated config
    # may be rejected at build time
    for spec in generate_batch(0, 40):
        assert validate_config(spec.config) == [], spec.task_id


def test_probes_cover_every_session():
    config = generate_batch(5, 1)[0].config
    assert session_probes(config) == tuple(
        f"{s['vc']}.acr" for s in config["sessions"])


def test_batch_rejects_bad_budget():
    with pytest.raises(ValueError):
        generate_batch(0, 0)
    with pytest.raises(ValueError):
        generate_batch(0, -3)


def test_generated_space_covers_the_advertised_axes():
    # one modest batch must exercise families, algorithms, and the
    # optional knobs — a silent generator regression (everything
    # collapsing to one family) should fail loudly here
    configs = [s.config for s in generate_batch(0, 60)]
    assert {c["family"] for c in configs} \
        == {"dumbbell", "chain", "parking", "tree"}
    assert {c["algorithm"] for c in configs} >= {
        "phantom", "phantom-binary", "erica", "eprca", "capc"}
    assert any(c.get("rm_loss") for c in configs)
    assert any(c.get("vbr") for c in configs)
    assert any(c.get("cbr") for c in configs)
    assert any(s.get("onoff") for c in configs for s in c["sessions"])
    assert any("params" in s for c in configs for s in c["sessions"])


def test_binary_draws_always_carry_finite_buffers():
    # the fuzz envelope pins binary feedback to finite port buffers
    # (the binary-queue-ratchet corpus entry records why)
    rng = Random(99)
    seen = 0
    for _ in range(400):
        config = generate_config(rng)
        if config["algorithm"] != "phantom-binary":
            continue
        seen += 1
        assert all(t.get("buffer_cells") for t in config["trunks"])
        knobs = config["algorithm_params"]
        assert knobs["utilization_factor"] <= 5.0
        assert knobs.get("interval", 1e-3) <= 1e-3
    assert seen > 5


def test_generate_config_draws_only_from_the_injected_handle():
    # same handle state, same config — generate_config is a pure
    # function of the Random it is handed
    assert generate_config(Random(4)) == generate_config(Random(4))
