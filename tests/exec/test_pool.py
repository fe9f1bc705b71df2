"""The pool: serial/parallel parity, failure handling, retries, cache."""

import pytest

from repro.exec import (ResultCache, SourceIndex, TaskSpec, default_jobs,
                        run_tasks)
from repro.exec.pool import MAX_DEFAULT_JOBS
from repro.exec.registry import _SCENARIOS, register_scenario

SMALL_ATM = dict(scenario="atm.staggered",
                 params={"n_sessions": 2, "duration": 0.05,
                         "stagger": 0.01})


def specs(n: int = 3) -> list[TaskSpec]:
    # durations differ so each task is distinct work (own fingerprint)
    out = []
    for i in range(n):
        params = dict(SMALL_ATM["params"], duration=0.05 + 0.01 * i)
        out.append(TaskSpec(task_id=f"T{i}", scenario="atm.staggered",
                            params=params, probes=("s0.acr",)))
    return out


# entry points for failure-mode tests; module-level so the registry
# accepts them and forked workers can resolve them
def always_raises(duration: float = 0.1):
    raise RuntimeError("scripted failure")


def spins_forever(duration: float = 0.1):
    while True:
        pass


@pytest.fixture
def scratch_registry():
    before = dict(_SCENARIOS)
    yield
    _SCENARIOS.clear()
    _SCENARIOS.update(before)


# ----------------------------------------------------------------------
# parity and ordering
# ----------------------------------------------------------------------
def test_parallel_is_bit_identical_to_serial():
    serial = run_tasks(specs(), jobs=1)
    parallel = run_tasks(specs(), jobs=4)
    assert [r.spec.task_id for r in parallel] == ["T0", "T1", "T2"]
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert p.payload["probe_digests"] == s.payload["probe_digests"]
        assert p.payload["metrics"] == s.payload["metrics"]
        assert p.payload["counters"] == s.payload["counters"]
        assert p.payload["series"] == s.payload["series"]
        assert p.payload["now"] == s.payload["now"]


def test_single_task_and_metric_accessors():
    (res,) = run_tasks(specs(1), jobs=4)  # degrades to in-process
    assert res.ok and res.attempts == 1 and not res.cached
    assert res.metric("jain") == res.payload["metrics"]["jain"]
    probe = res.probe("s0.acr")
    assert len(probe.times) == len(probe.values) > 0
    with pytest.raises(KeyError):
        res.probe("s1.acr")  # not in the requested probe set


def test_duplicate_task_ids_are_rejected():
    pair = [specs(1)[0], specs(1)[0]]
    with pytest.raises(ValueError, match="duplicate task_id"):
        run_tasks(pair, jobs=1)


def test_jobs_and_retries_are_validated():
    with pytest.raises(ValueError, match="jobs"):
        run_tasks(specs(1), jobs=0)
    with pytest.raises(ValueError, match="retries"):
        run_tasks(specs(1), jobs=1, retries=-1)


# ----------------------------------------------------------------------
# failures stay data, retries are accounted
# ----------------------------------------------------------------------
def test_error_entries_consume_the_retry_budget(scratch_registry):
    register_scenario("atm.raises", always_raises, kind="atm")
    bad = TaskSpec(task_id="bad", scenario="atm.raises")
    for jobs in (1, 2):
        (res,) = run_tasks([bad], jobs=jobs, retries=2)
        assert res.status == "error" and not res.ok
        assert res.attempts == 3  # 1 try + 2 retries
        assert "scripted failure" in res.error
        with pytest.raises(ValueError, match="no metrics"):
            res.metric("jain")


def test_unknown_scenario_is_an_error_result():
    (res,) = run_tasks([TaskSpec(task_id="x", scenario="atm.nope")],
                       jobs=1, retries=0)
    assert res.status == "error"
    assert "unknown scenario" in res.error


def test_unresolvable_specs_are_error_results_in_parallel(tmp_path):
    # run_tasks fingerprints every spec, and imports each task's modules
    # before forking; a spec whose modules cannot be resolved must still
    # come back as data, and must not stop the batch's good tasks
    batch = [TaskSpec(task_id="x", scenario="atm.nope"),
             TaskSpec(task_id="y", scenario="atm.staggered",
                      params={"algorithm": "nope", "duration": 0.01}),
             TaskSpec(task_id="ok", **SMALL_ATM)]
    for jobs, cache in ((2, None), (1, ResultCache(tmp_path / "j1")),
                        (2, ResultCache(tmp_path / "j2"))):
        results = run_tasks(batch, jobs=jobs, cache=cache, retries=0)
        assert [r.status for r in results] == ["error", "error", "ok"]
        assert "unknown scenario" in results[0].error
        assert "unknown algorithm" in results[1].error
        assert [r.fingerprint is None for r in results] == [
            True, True, cache is None]


def test_timeouts_are_reported_not_raised(scratch_registry):
    register_scenario("atm.spin", spins_forever, kind="atm")
    spin = TaskSpec(task_id="spin", scenario="atm.spin")
    (res,) = run_tasks([spin], jobs=1, timeout=0.2, retries=0)
    assert res.status == "timeout"
    assert "0.2s" in res.error


def test_failures_do_not_poison_later_tasks(scratch_registry):
    register_scenario("atm.raises", always_raises, kind="atm")
    mixed = [specs(1)[0],
             TaskSpec(task_id="bad", scenario="atm.raises"),
             TaskSpec(task_id="T9", probes=("s0.acr",), **SMALL_ATM)]
    results = run_tasks(mixed, jobs=2, retries=0)
    assert [r.status for r in results] == ["ok", "error", "ok"]


# ----------------------------------------------------------------------
# the cache through run_tasks
# ----------------------------------------------------------------------
def test_second_run_is_served_from_cache(tmp_path):
    index = SourceIndex()
    cache = ResultCache(tmp_path)
    first = run_tasks(specs(), jobs=1, cache=cache, index=index)
    assert all(r.ok and not r.cached for r in first)
    second = run_tasks(specs(), jobs=1, cache=cache, index=index)
    assert all(r.cached for r in second)
    for f, s in zip(first, second):
        assert s.payload == f.payload  # bitwise: floats round-trip
        assert s.fingerprint == f.fingerprint


def test_failed_tasks_are_never_cached(tmp_path, scratch_registry):
    register_scenario("atm.raises", always_raises, kind="atm")
    cache = ResultCache(tmp_path)
    bad = TaskSpec(task_id="bad", scenario="atm.raises")
    run_tasks([bad], jobs=1, cache=cache, retries=0)
    (again,) = run_tasks([bad], jobs=1, cache=cache, retries=0)
    assert again.status == "error" and not again.cached


# ----------------------------------------------------------------------
# job-count selection
# ----------------------------------------------------------------------
def test_default_jobs_is_the_capped_core_count():
    assert 1 <= default_jobs() <= MAX_DEFAULT_JOBS
