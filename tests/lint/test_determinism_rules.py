"""DET003: set iteration in files that schedule events."""

from tests.lint.helpers import (assert_rule_matches_fixture, lint_fixture,
                                lint_snippet)


def test_det003_set_iteration_flagged_and_suppressible():
    assert_rule_matches_fixture("DET003", "det003_set_iteration.py")


def test_det003_covers_files_that_schedule_through_the_fast_path():
    # the packet kernel's ports, switches and links schedule only
    # through schedule_fast/schedule_fast_at or a direct heappush
    assert_rule_matches_fixture("DET003", "det003_fast_path.py",
                                package="atm")


def test_det003_inactive_without_scheduling():
    source = "def f(xs):\n    return [x for x in set(xs)]\n"
    assert [f for f in lint_snippet(source) if f.rule_id == "DET003"] == []


def test_findings_carry_rule_metadata():
    findings = lint_fixture("det003_set_iteration.py", "DET003")
    assert findings, "fixture must produce findings"
    for finding in findings:
        assert finding.path.endswith("det003_set_iteration.py")
        assert finding.col >= 1
        assert "set" in finding.message
