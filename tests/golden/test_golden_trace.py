"""Golden-trace tests: the fast kernel's bit-identity contract.

Each committed fixture under ``tests/golden/fixtures/`` pins one perf
workload's simulated outcome — probe-series sha256 digests over raw
IEEE-754 bytes, domain counters, final clock, executed-event count.  The
tests re-run every workload and require an exact match: a hot-path
change that shifts any timestamp, sample, or counter by even one ULP
fails here, which is what licenses the optimisations measured in
``BENCH_perf.json`` (see docs/PERFORMANCE.md).

The perturbation test closes the loop on the harness itself: it breaks
the engine's (time, seq) tie-break on purpose and asserts the comparison
*does* fail, so a silently weakened trace can't green-light a broken
kernel.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.perf import golden
from repro.sim.engine import Simulator

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _fixture(name: str) -> dict:
    return golden.read_trace(str(FIXTURES / f"{name}.json"))


@pytest.mark.parametrize("name", sorted(golden.GOLDEN_SCALES))
def test_workload_reproduces_golden_trace(name):
    expected = _fixture(name)
    actual = golden.capture(name, golden.GOLDEN_SCALES[name])
    assert golden.compare_traces(expected, actual) == []


def test_every_workload_has_a_fixture():
    assert sorted(golden.GOLDEN_SCALES) == golden.fixture_names()
    for name in golden.fixture_names():
        assert (FIXTURES / f"{name}.json").exists(), name


@pytest.mark.parametrize("name", sorted(golden.GOLDEN_SCALES))
def test_fixture_preserves_preopt_event_count(name):
    """The informational pre-optimization count stays committed.

    ``executed_events`` shrank when transmitters merged per-cell events;
    the fixture keeps the original count so the structural change is
    documented next to the value that gates it.
    """
    fixture = _fixture(name)
    assert fixture["executed_events_preopt"] >= fixture["executed_events"]


def test_capture_is_deterministic():
    """Two captures in one process are bit-identical (closed workloads)."""
    name = "e01_staggered"
    scale = golden.GOLDEN_SCALES[name]
    first = golden.capture(name, scale)
    second = golden.capture(name, scale)
    assert golden.compare_traces(first, second) == []


@pytest.mark.parametrize("name", ["e01_staggered", "e11_tcp"])
def test_traced_run_matches_untraced_digests(name):
    """Observation changes no simulated outcome.

    A run with the full trace bus enabled (every category, every emit
    point firing) must produce bit-identical probe digests, counters,
    and clock to the committed untraced fixture — the contract that
    lets tracing be turned on for debugging without invalidating any
    result captured without it.  One ATM and one TCP workload cover
    both protocol stacks' emit points.
    """
    from repro.obs import Tracer

    tracer = Tracer()
    traced = golden.capture(name, golden.GOLDEN_SCALES[name],
                            tracer=tracer)
    assert len(tracer.events) > 0, "tracer installed but nothing emitted"
    assert golden.compare_traces(_fixture(name), traced) == []


def _install_reversed_tie_break(monkeypatch):
    """Make later-scheduled events win timestamp ties, kernel-wide.

    The engine breaks ties by insertion order via a shared monotonically
    increasing sequence counter; replacing it with a *decreasing* one
    reverses same-instant ordering without touching any timestamp
    arithmetic.  Installed inside ``__init__`` so every component that
    aliases ``sim._seq`` at construction picks up the perturbed counter.
    """
    original_init = Simulator.__init__

    def reversed_ties(self):
        original_init(self)
        self._seq = itertools.count(0, -1)

    monkeypatch.setattr(Simulator, "__init__", reversed_ties)


def test_reversed_tie_break_flips_same_instant_order(monkeypatch):
    _install_reversed_tie_break(monkeypatch)
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["c", "b", "a"]


def test_perturbed_tie_break_fails_the_comparison(monkeypatch):
    """A reversed tie-break must trip the golden check.

    ``e02_onoff`` is the tie-sensitive workload: its on/off toggles and
    re-pacing race emission wake-ups against toggles at identical
    instants, so same-instant ordering is observable in the trace.  (The
    other workloads' remaining ties happen to commute — which is itself
    informative — so the sensitivity is asserted where it must exist.)
    """
    _install_reversed_tie_break(monkeypatch)
    name = "e02_onoff"
    perturbed = golden.capture(name, golden.GOLDEN_SCALES[name])
    problems = golden.compare_traces(_fixture(name), perturbed)
    assert problems, ("reversed tie-break produced a bit-identical trace; "
                      "the golden harness lost its ordering sensitivity")


def test_a_shared_probe_series_is_digested_once(monkeypatch):
    """A single-class port's ``queue`` and ``abr_queue`` probes share
    one pair of arrays; the worker's and the golden trace's reducers
    canonicalise it once and report it under both names."""
    from repro.exec.entries import atm_staggered
    from repro.exec.spec import TaskSpec
    from repro.exec.worker import execute_task

    calls = []
    canonical_series = golden.canonical_series
    monkeypatch.setattr(golden, "canonical_series", lambda probe: (
        calls.append(probe.name) or canonical_series(probe)))
    spec = TaskSpec(task_id="E01", scenario="atm.staggered",
                    params={"duration": 0.05})
    payload = execute_task({"spec": spec.to_dict()})
    assert payload["status"] == "ok"
    digests = payload["probe_digests"]
    [abr_queue] = [name for name in digests if name.endswith(".abr_queue")]
    assert digests[abr_queue] == digests[abr_queue.replace("abr_", "")]
    assert len(calls) == len(digests) - 1

    calls.clear()
    trace = golden.trace_from_run("E01", 1.0, atm_staggered(duration=0.05))
    assert trace["probes"] == digests
    assert len(calls) == len(digests) - 1
