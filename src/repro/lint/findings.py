"""Finding and severity types shared by every rule and reporter."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break an invariant the repository documents
    (determinism, the scheduler contract); ``WARNING`` findings are
    strong smells that occasionally have legitimate exceptions.  Both
    fail the lint run — the difference is what a suppression pragma is
    expected to justify.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} [{self.severity}] {self.message}")


#: Pseudo-rule id used for files that fail to parse.
PARSE_ERROR_ID = "LNT000"

#: Pseudo-rule id for suppression pragmas that no longer suppress
#: anything; reported by ``--report-unused-pragmas``.
DEAD_SUPPRESSION_ID = "LNT001"
