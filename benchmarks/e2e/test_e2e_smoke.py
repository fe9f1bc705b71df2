"""Smoke test of the end-to-end benchmark at ``--quick`` scale.

    pytest benchmarks/e2e -q

One traced quick run of all six workloads backs the output checks; the
generator and layer-map checks run in-process.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import layers
from workloads import ROOT, WORKLOADS, parking_config

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)")


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=900)
    assert out.is_file(), proc.stderr[-3000:]
    return proc, json.loads(out.read_text(encoding="utf-8"))["workloads"]


def _blocks(stdout: str) -> dict[str, list[tuple[str, str]]]:
    """(metric name, unit) lines printed under each workload header."""
    blocks: dict[str, list[tuple[str, str]]] = {}
    current = None
    for line in stdout.splitlines():
        header = re.match(r"^(\w+): one unit = ", line)
        if header:
            current = blocks.setdefault(header[1], [])
            continue
        found = METRIC_LINE.match(line)
        if current is not None and found:
            current.append((found[1], found[3]))
    return blocks


def test_quick_run_passes_every_check(quick_run):
    proc, results = quick_run
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert sorted(results) == sorted(WORKLOADS)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    # scratch space is removed at exit
    assert not list(HERE.glob(".scratch-*"))


def test_every_metric_printed_once_with_its_unit(quick_run):
    proc, results = quick_run
    blocks = _blocks(proc.stdout)
    assert sorted(blocks) == sorted(WORKLOADS)
    for name, lines in blocks.items():
        seen = Counter(lines)
        for metric in SPEC["end_to_end"]:
            assert seen[(metric["name"], metric["unit"])] == 1, (name, metric)
        for metric in SPEC["per_layer"]:
            applies = bool(results[name]["per_layer"].get(metric["name"]))
            assert seen[(metric["name"], metric["unit"])] == applies, (
                name, metric)


def test_run_length_is_fixed_by_benchmark_json():
    other = SPEC["run_seconds"] + 1
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", str(other)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "run_seconds" in proc.stderr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    def inputs(seed: int) -> str:
        workload = WORKLOADS[name](seed, False, tmp_path)
        return json.dumps(workload.inputs(), sort_keys=True)

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_every_parking_config_is_oracle_eligible():
    from repro.fuzz.harness import oracle_eligibility

    for seed in range(50):
        for horizon in (0.1, 0.25):
            config = parking_config(seed, horizon)
            assert oracle_eligibility(config) is None, (seed, horizon)


def test_layer_map_covers_every_repro_module(quick_run):
    from repro.exec.fingerprint import SourceIndex

    unmapped = [m for m in SourceIndex().all_modules()
                if layers.layer_of_module(m) is None]
    assert unmapped == []
    _, results = quick_run
    for name, data in results.items():
        assert data["unmapped_modules"] == [], name


def test_layer_shares_sum_to_the_traced_wall(quick_run):
    _, results = quick_run
    for name, data in results.items():
        assert abs(1.0 - data["layer_sum_frac"]) <= 0.05, name


def test_builtin_time_goes_to_the_calling_layer():
    port = (str(ROOT / "src/repro/atm/port.py"), 1, "enqueue")
    engine = (str(ROOT / "src/repro/sim/engine.py"), 1, "run")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        port: (1, 1, 2.0, 5.0, {engine: (1, 1, 2.0, 5.0)}),
        engine: (1, 1, 1.0, 6.0, {}),
        # heappush: 3 s of self time, 2 s of it called from the port
        push: (3, 3, 3.0, 3.0, {port: (2, 2, 2.0, 2.0),
                                engine: (1, 1, 1.0, 1.0)}),
    }
    files = layers.FileLayers(ROOT / "src" / "repro", HERE)
    seconds = layers.attribute(stats, files)
    assert seconds == pytest.approx({"atm.port": 4.0, "sim.engine": 2.0})
