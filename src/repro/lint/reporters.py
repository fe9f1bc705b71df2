"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Sequence

from repro.lint.findings import Finding

#: Schema version of the JSON report (bump on breaking changes).
JSON_SCHEMA_VERSION = 1


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    lines = [f.render() for f in findings]
    noun = "file" if files_checked == 1 else "files"
    if findings:
        n = len(findings)
        lines.append(f"{n} finding{'s' if n != 1 else ''} "
                     f"in {files_checked} {noun}")
    else:
        lines.append(f"{files_checked} {noun} clean")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    report = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": files_checked,
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(report, indent=2, sort_keys=True)
