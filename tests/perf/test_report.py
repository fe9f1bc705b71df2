"""``repro perf --output`` merges its rows into the committed report."""

import json
import os
import platform

from repro import perf
from repro.cli import main

COMMITTED = {
    "python": "3.11.0",
    "machine": "x86_64",
    "workloads": {"e01_staggered": {"wall_s": 9.0, "cpus": 1},
                  "e02_onoff": {"wall_s": 8.0, "cpus": 1}},
    "fluid": {"million": {"wall_s": 1.0, "cpus": 1}},
    "fuzz": {"j1-cold": {"scenarios_per_sec": 0.62}},
    "serve": {"p95_s": 0.11},
    "suite": {"j1": {"wall_s": 13.35, "cpus": 2}},
}


def test_perf_output_replaces_only_the_rows_it_measured(tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(COMMITTED))
    assert main(["perf", "--workload", "e01_staggered", "--scale", "0.15",
                 "--output", str(path)]) == 0
    assert f"recorded 1 workload(s) in {path}" in capsys.readouterr().out
    merged = json.loads(path.read_text())
    assert set(merged) == set(COMMITTED)
    for section in ("fluid", "fuzz", "serve", "suite"):
        assert merged[section] == COMMITTED[section]
    assert merged["workloads"]["e02_onoff"] == \
        COMMITTED["workloads"]["e02_onoff"]
    row = merged["workloads"]["e01_staggered"]
    assert row["scale"] == 0.15 and row["cpus"] == os.cpu_count()
    assert merged["python"] == platform.python_version()


def test_merge_report_starts_from_nothing_when_unreadable(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{ torn")
    row = {"wall_s": 1.0}
    assert perf.merge_report(str(path), "suite", {"j1": row}) == {
        "suite": {"j1": row}}
    assert perf.read_report(str(path)) == {"suite": {"j1": row}}
    missing = tmp_path / "missing.json"
    perf.merge_report(str(missing), "fluid", {"million": row}, cpus=2)
    assert perf.read_report(str(missing)) == {"cpus": 2,
                                              "fluid": {"million": row}}
