"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _run_in_tmpdir(tmp_path, monkeypatch):
    """run/perf write run manifests into the cwd by default; keep test
    artifacts out of the repo checkout."""
    monkeypatch.chdir(tmp_path)


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "phantom" in out
    assert "selective-discard" in out
    assert "staggered" in out


def test_list_includes_exec_scenario_registry(capsys):
    """`repro list` is the one discoverable source of the registry names
    used by `repro run/suite/sweep` and the serve API's POST /jobs."""
    from repro.exec.registry import all_scenarios

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "scenarios :" in out
    for name in all_scenarios():
        assert name in out


def test_serve_subcommand_is_wired():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0",
                                      "--no-admission"])
    assert args.fn.__name__ == "_cmd_serve"
    assert args.port == 0 and args.no_admission

    from repro.serve.cli import config_from_args

    config = config_from_args(args)
    assert config.port == 0 and not config.admission


def test_atm_staggered_phantom(capsys):
    assert main(["run", "atm.staggered", "--set", "algorithm=phantom",
                 "--set", "duration=0.15"]) == 0
    out = capsys.readouterr().out
    assert "jain" in out
    assert "utilization" in out
    assert "verdict  : pass" in out


def test_atm_sessions_flag(capsys):
    assert main(["run", "atm.staggered", "--set", "n_sessions=3",
                 "--set", "duration=0.15"]) == 0
    out = capsys.readouterr().out
    assert "rates.s2" in out


def test_atm_baseline_algorithm(capsys):
    assert main(["run", "atm.staggered", "--set", "algorithm=capc",
                 "--set", "duration=0.15"]) == 0
    assert "jain" in capsys.readouterr().out


def test_tcp_selective_discard(capsys):
    assert main(["run", "tcp.many", "--set", "policy=selective-discard",
                 "--set", "duration=5"]) == 0
    out = capsys.readouterr().out
    assert "goodput.f0" in out
    assert "total_goodput" in out


def test_atm_writes_manifest_by_default(capsys, tmp_path):
    assert main(["run", "atm.staggered", "--set", "duration=0.15"]) == 0
    assert "wrote repro_run.manifest.json" in capsys.readouterr().out
    manifest = json.loads(
        (tmp_path / "repro_run.manifest.json").read_text())
    assert manifest["schema"] == "repro.obs.manifest"
    assert manifest["command"] == "run"
    assert manifest["params"] == {"scenario": "atm.staggered",
                                  "duration": 0.15}
    assert manifest["metrics"]


def test_atm_manifest_opt_out(capsys, tmp_path):
    assert main(["run", "atm.staggered", "--set", "duration=0.15",
                 "--manifest", ""]) == 0
    capsys.readouterr()
    assert not (tmp_path / "repro_run.manifest.json").exists()


def test_atm_trace_flag_records_jsonl(capsys, tmp_path):
    assert main(["run", "atm.staggered", "--set", "duration=0.15",
                 "--trace", "t.jsonl"]) == 0
    assert "wrote t.jsonl" in capsys.readouterr().out
    from repro.obs import validate_trace_jsonl

    assert validate_trace_jsonl(str(tmp_path / "t.jsonl")) == []
    manifest = json.loads(
        (tmp_path / "repro_run.manifest.json").read_text())
    assert manifest["trace"] == "t.jsonl"


def test_tcp_writes_manifest_by_default(capsys, tmp_path):
    assert main(["run", "tcp.many", "--set", "policy=drop-tail",
                 "--set", "duration=3"]) == 0
    capsys.readouterr()
    manifest = json.loads(
        (tmp_path / "repro_run.manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["params"]["policy"] == "drop-tail"


def test_perf_writes_companion_manifest(capsys, tmp_path):
    assert main(["perf", "--workload", "e11_tcp", "--scale", "0.15",
                 "--output", "bench.json"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "bench.manifest.json").read_text())
    assert manifest["command"] == "perf"
    assert manifest["params"]["workload"] == ["e11_tcp"]
    assert any(key.startswith("e11_tcp.") for key in manifest["metrics"])


def test_obs_record_and_diff_roundtrip(capsys, tmp_path):
    for label in "ab":
        assert main(["run", "tcp.many", "--set", "duration=3",
                     "--trace", f"{label}.jsonl",
                     "--manifest", f"{label}.json"]) == 0
    capsys.readouterr()
    assert main(["obs", "validate", "a.jsonl", "--manifest", "a.json"]) == 0
    # identical params and a closed workload: nothing to report
    assert main(["obs", "diff", "a.json", "b.json"]) == 0
    assert main(["obs", "summarize", "a.jsonl"]) == 0
    assert main(["obs", "convert", "a.jsonl"]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.jsonl.chrome.json").exists()


def test_maxmin_classic(capsys):
    assert main(["maxmin", "--link", "l1=100", "--link", "l2=100",
                 "--session", "long=l1,l2", "--session", "s1=l1",
                 "--session", "s2=l2"]) == 0
    out = capsys.readouterr().out
    assert "classic max-min" in out
    assert "50.00" in out


def test_maxmin_phantom_factor(capsys):
    assert main(["maxmin", "--link", "l=150",
                 "--session", "a=l", "--session", "b=l",
                 "--factor", "5"]) == 0
    out = capsys.readouterr().out
    assert "phantom max-min (f=5.0)" in out
    assert "68.18" in out


def test_maxmin_bad_spec():
    with pytest.raises(SystemExit):
        main(["maxmin", "--link", "nonsense", "--session", "a=l"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
