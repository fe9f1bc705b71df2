"""The reducers every worker task runs, pinned to the loops they replaced.

``Probe.time_average``, ``perf.golden.canonical_series`` and
``obs.monitor._scan_queue`` once walked a series sample by sample in
Python; they now do the same float operations in the same order without
a per-sample method call.  Each ``reference_*`` below is the replaced
loop, kept verbatim (``time_average``'s as a function of the probe),
and each property requires the new code to return the same bits:
floats are compared by ``float.hex`` (and type), arrays by their raw
bytes, the ``peaks`` and ``violations`` dicts whole.
"""

from array import array

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.obs.monitor import _scan_queue
from repro.perf.golden import canonical_series
from repro.sim.probe import Probe, StepProbe


# ----------------------------------------------------------------------
# the replaced loops
# ----------------------------------------------------------------------
def reference_time_average(probe, end=None):
    if not probe.times:
        raise ValueError(f"probe {probe.name!r} is empty")
    horizon = probe.times[-1] if end is None else end
    if horizon < probe.times[-1]:
        return reference_time_average(
            probe.window(probe.times[0], horizon), horizon)
    total = 0.0
    for i, (t, v) in enumerate(probe):
        t_next = probe.times[i + 1] if i + 1 < len(probe) else horizon
        total += v * (t_next - t)
    span = horizon - probe.times[0]
    if span <= 0:
        return probe.values[-1]
    return total / span


def reference_canonical_series(probe):
    times = array("d")
    values = array("d")
    for t, v in zip(probe.times, probe.values):
        # exact compare on purpose: canonicalisation collapses samples
        # at bit-identical timestamps only
        if times and t == times[-1]:
            values[-1] = v
        else:
            times.append(t)
            values.append(v)
    return times, values


def reference_scan_queue(probe, bound, name, peaks, violations):
    peak = 0.0
    for t, v in probe:
        if v > peak:
            peak = v
            if v > bound and name not in violations:
                violations[name] = t
    peaks[name] = peak


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------
KINDS = ("list", "step")


def exact(x):
    """A value's type and bits: ``0.0``, ``-0.0`` and ``0`` all differ."""
    return (type(x).__name__, x.hex() if isinstance(x, float) else repr(x))


def exact_dict(d):
    return {key: exact(value) for key, value in d.items()}


def make_probe(kind, times, values):
    """A ``Probe`` on lists or a ``StepProbe`` on arrays, holding the
    samples as given (repeats included, as a list-backed probe records
    them)."""
    if kind == "list":
        probe = Probe("p")
        probe.times, probe.values = list(times), list(values)
    else:
        probe = StepProbe("p")
        probe.times, probe.values = array("d", times), array("d", values)
    return probe


@st.composite
def series(draw, values=st.floats(allow_nan=False, width=64)):
    """Non-decreasing times, often repeating, and values of mixed type."""
    n = draw(st.integers(min_value=1, max_value=40))
    gaps = draw(st.lists(st.one_of(st.just(0.0),
                                   st.floats(min_value=1e-9,
                                             max_value=10.0)),
                         min_size=n, max_size=n))
    t = draw(st.floats(min_value=-10.0, max_value=10.0))
    times = []
    for gap in gaps:
        t += gap
        times.append(t)
    vals = draw(st.lists(st.one_of(values, st.integers(-1000, 1000)),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(KINDS))
    return kind, times, vals


# ----------------------------------------------------------------------
# time_average
# ----------------------------------------------------------------------
def time_averages(probe, end):
    """(new, reference) ``time_average`` bits, or ValueError for each."""
    results = []
    for average in (Probe.time_average, reference_time_average):
        try:
            results.append(exact(average(probe, end)))
        except ValueError:
            results.append(ValueError)
    return results


@given(series(), st.data())
@settings(max_examples=200, deadline=None)
def test_time_average_matches_reference(case, data):
    kind, times, values = case
    probe = make_probe(kind, times, values)
    first, last = times[0], times[-1]
    end = data.draw(st.one_of(
        st.none(),
        st.just(last),                                      # at
        st.floats(min_value=first, max_value=last),         # before
        st.floats(min_value=first - 5.0, max_value=first),  # to empty
        st.floats(min_value=last, max_value=last + 50.0),   # after
    ))
    new, ref = time_averages(probe, end)
    assert new == ref


def test_time_average_single_sample_and_zero_span():
    for kind in KINDS:
        one = make_probe(kind, [1.0], [3])
        for end in (None, 0.5, 1.0, 4.0):
            new, ref = time_averages(one, end)
            assert new == ref
        assert time_averages(one, 0.5)[0] is ValueError
        repeated = make_probe(kind, [2.0, 2.0, 2.0], [1.0, 5.0, 7.0])
        for end in (None, 2.0, 3.0):
            new, ref = time_averages(repeated, end)
            assert new == ref
        assert time_averages(repeated, None)[0] == exact(7.0)


# ----------------------------------------------------------------------
# canonical_series
# ----------------------------------------------------------------------
@given(series(values=st.floats(width=64)))
@settings(max_examples=200, deadline=None)
@example(("list", [0.0], [1.0]))
@example(("step", [0.0, 0.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]))
@example(("list", [0.0, -0.0, 1.0], [1, 2, 3]))
def test_canonical_series_matches_reference(case):
    probe = make_probe(*case)
    times, values = canonical_series(probe)
    ref_times, ref_values = reference_canonical_series(probe)
    assert (times.typecode, values.typecode) == ("d", "d")
    assert times.tobytes() == ref_times.tobytes()
    assert values.tobytes() == ref_values.tobytes()


def test_canonical_series_copies_a_series_without_repeats():
    probe = make_probe("step", [0.0, 1.0], [5.0, 6.0])
    times, values = canonical_series(probe)
    times[0] = values[0] = 9.0
    assert list(probe.times) == [0.0, 1.0]
    assert list(probe.values) == [5.0, 6.0]


# ----------------------------------------------------------------------
# _scan_queue
# ----------------------------------------------------------------------
def scan_both(probe, bound, preset):
    """(new, reference) ``(peaks, violations)``, each scan starting from
    the same dicts (``preset`` marks the name as already violated)."""
    results = []
    for scan in (_scan_queue, reference_scan_queue):
        peaks = {"other": 1.5}
        violations = {"other": 0.25}
        if preset:
            violations["q"] = -1.0
        scan(probe, bound, "q", peaks, violations)
        results.append((exact_dict(peaks), exact_dict(violations)))
    return results


@given(series(), st.data(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_scan_queue_matches_reference(case, data, preset):
    kind, times, values = case
    probe = make_probe(kind, times, values)
    first = probe.values[0]
    bound = data.draw(st.one_of(
        st.just(0.0),
        st.just(first - 1.0),                       # below the first
        st.sampled_from(list(probe.values)),        # met, maybe again
        st.floats(allow_nan=False),
        st.integers(-1000, 1000)))
    new, ref = scan_both(probe, bound, preset)
    assert new == ref


def test_scan_queue_reports_the_first_of_two_crossings():
    probe = make_probe("step", [0.0, 1.0, 2.0, 3.0, 4.0],
                       [1.0, 6.0, 2.0, 9.0, 3.0])
    new, ref = scan_both(probe, 5.0, preset=False)
    assert new == ref
    peaks, violations = new
    assert peaks["q"] == exact(9.0)
    assert violations["q"] == exact(1.0)


def test_scan_queue_bound_below_first_sample_and_zero_floor():
    for kind in KINDS:
        probe = make_probe(kind, [0.0, 1.0, 2.0], [0.0, 0.0, 4.0])
        new, ref = scan_both(probe, -3.0, preset=False)
        assert new == ref
        # a negative bound is first crossed above the 0.0 floor
        assert new[1]["q"] == exact(2.0)
        probe = make_probe(kind, [0.0, 1.0], [-2.0, -1.0])
        new, ref = scan_both(probe, 0.0, preset=False)
        assert new == ref
        assert new[0]["q"] == exact(0.0) and "q" not in new[1]


def test_scan_queue_on_an_empty_probe():
    new, ref = scan_both(Probe("q"), 0.0, preset=False)
    assert new == ref
    assert new[0]["q"] == exact(0.0)
