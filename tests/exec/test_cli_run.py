"""`repro run`: one registry scenario, in-process, through the worker
code a suite task runs."""

import json

import pytest

from repro.cli import main
from repro.exec.spec import TaskSpec
from repro.exec.worker import execute_task
from repro.obs import validate_trace_jsonl


@pytest.fixture(autouse=True)
def _run_in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _run(name, *settings, extra=()):
    argv = ["run", name, *extra]
    for setting in settings:
        argv += ["--set", setting]
    return main(argv)


def _suite_task(name, params, seed=None):
    """The payload `repro suite` would reduce for the same entry call,
    through JSON as a manifest stores it."""
    spec = TaskSpec(task_id=name, scenario=name, params=params, seed=seed)
    payload = execute_task({"spec": spec.to_dict()})
    assert payload["status"] == "ok", payload.get("error")
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("name,settings", [
    ("atm.background", ("duration=0.25", "cbr_start=0.1",
                        "cbr_stop=0.2")),
    ("atm.weighted", ()),
    ("tcp.twoway", ("duration=3",)),
])
def test_entries_no_old_command_reached_run(name, settings, tmp_path,
                                            capsys):
    assert _run(name, *settings, extra=["--manifest", "m.json"]) == 0
    assert "jain" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["params"]["scenario"] == name
    assert manifest["health"]["scenario"] == name
    assert manifest["health"]["verdict"] == "pass"


@pytest.mark.parametrize("name,duration", [
    ("atm.staggered", 0.15), ("tcp.many", 3.0), ("fluid.parking", 0.15)])
def test_traced_run_reports_what_a_suite_task_reduces(name, duration,
                                                      tmp_path, capsys):
    assert _run(name, f"duration={duration}",
                extra=["--trace", "t.jsonl", "--manifest", "m.json"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "m.json").read_text())
    task = _suite_task(name, {"duration": duration})
    # tracing observes the run without perturbing it
    assert manifest["metrics"] == task["metrics"]
    assert manifest["health"] == task["health"]
    assert manifest["trace"] == "t.jsonl"
    trace = tmp_path / "t.jsonl"
    assert validate_trace_jsonl(str(trace)) == []
    assert len(trace.read_text().splitlines()) > 1


def test_seed_goes_through_set(tmp_path, capsys):
    assert _run("atm.onoff", "seed=3", "duration=0.1",
                extra=["--manifest", "m.json"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["params"] == {"scenario": "atm.onoff",
                                  "duration": 0.1}
    task = _suite_task("atm.onoff", {"duration": 0.1}, seed=3)
    assert manifest["metrics"] == task["metrics"]
    assert manifest["metrics"] != _suite_task(
        "atm.onoff", {"duration": 0.1}, seed=4)["metrics"]


KEYS = "its keys: algorithm, algorithm_params, duration"


@pytest.mark.parametrize("setting,message", [
    (None, "unknown scenario 'atm.bogus'; known: atm.background, "),
    ("bogus=1", "atm.staggered takes no bogus; " + KEYS),
    ("tracer=1", "atm.staggered takes no tracer; " + KEYS),
    ("seed=3", "atm.staggered takes no seed; " + KEYS),
    ("duration", "bad --set 'duration'; expected KEY=VALUE"),
])
def test_bad_names_and_keys_are_usage_errors(setting, message, capsys):
    argv = (["run", "atm.bogus"] if setting is None
            else ["run", "atm.staggered", "--set", setting])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
