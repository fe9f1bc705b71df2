"""FLT001/SIM002: sim-API rules."""

from tests.lint.helpers import assert_rule_matches_fixture, lint_snippet


def test_flt001_float_equality_flagged_and_suppressible():
    assert_rule_matches_fixture("FLT001", "flt001_float_equality.py")


def test_flt001_ordering_comparisons_are_fine():
    source = ("def f(a: float, b: float) -> bool:\n"
              "    return a < b\n")
    assert [f for f in lint_snippet(source) if f.rule_id == "FLT001"] == []


def test_flt001_is_comparison_with_sentinel_is_fine():
    source = ("_NONE = object()\n"
              "def f(a: float) -> bool:\n"
              "    return a is _NONE\n")
    assert [f for f in lint_snippet(source) if f.rule_id == "FLT001"] == []


def test_sim002_discarded_schedule_flagged_and_suppressible():
    assert_rule_matches_fixture("SIM002", "sim002_discarded_schedule.py")


def test_sim002_silent_in_classes_that_never_cancel():
    source = ("class C:\n"
              "    def go(self, sim):\n"
              "        sim.schedule(1.0, print)\n")
    assert [f for f in lint_snippet(source) if f.rule_id == "SIM002"] == []
