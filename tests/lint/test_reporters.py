"""Reporter output contracts: text and JSON schema stability."""

import json

from repro.lint.findings import Finding, Severity
from repro.lint.reporters import (JSON_SCHEMA_VERSION, render_json,
                                  render_text)


def _finding(**overrides):
    base = dict(path="src/repro/sim/engine.py", line=10, col=5,
                rule_id="DET003", severity=Severity.ERROR,
                message="iteration order of a set is not deterministic")
    base.update(overrides)
    return Finding(**base)


def test_text_report_empty_and_nonempty():
    assert render_text([], 7) == "7 files clean"
    assert render_text([], 1) == "1 file clean"
    out = render_text([_finding()], 3)
    assert "DET003" in out and out.endswith("1 finding in 3 files")


def test_json_schema_is_stable_for_empty_findings():
    report = json.loads(render_json([], 12))
    assert report == {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": 12,
        "findings": [],
    }
