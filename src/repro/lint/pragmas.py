"""Inline suppression pragmas.

A finding on line *n* is suppressed when line *n* carries a comment of
the form::

    something()  # lint: disable=DET003
    other()      # lint: disable=DET003,SRV001 -- why this is fine

and a whole file opts out of a rule with a comment anywhere in it (by
convention at the top)::

    # lint: disable-file=SRV001

``disable=all`` suppresses every rule on that line.  Comments are found
with :mod:`tokenize`, so pragma-looking text inside string literals is
ignored.
"""

from __future__ import annotations

import io
import re
import tokenize

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<ids>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Wildcard accepted in a pragma id list.
ALL = "all"


class Suppressions:
    """Parsed suppression pragmas for one source file.

    Besides answering :meth:`is_suppressed`, the object records which
    pragmas actually fired (``used_line_ids`` / ``used_file_ids``) so a
    caller that ran *every* rule can report the dead ones — a pragma
    that suppresses nothing is a stale exception that hides nothing and
    misleads reviewers (see ``repro lint --report-unused-pragmas``).
    """

    def __init__(self, source: str):
        self.line_ids: dict[int, set[str]] = {}
        self.file_ids: set[str] = set()
        self.used_line_ids: dict[int, set[str]] = {}
        self.used_file_ids: set[str] = set()
        self._scan(source)

    def _scan(self, source: str) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _PRAGMA_RE.search(tok.string)
                if match is None:
                    continue
                ids = {part.strip().lower()
                       for part in match.group("ids").split(",")}
                if match.group("scope"):
                    self.file_ids |= ids
                else:
                    self.line_ids.setdefault(tok.start[0], set()).update(ids)
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # An unparseable file is reported separately (LNT000); pragma
            # scanning must never crash the run.
            pass

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rid = rule_id.lower()
        if rid in self.file_ids:
            self.used_file_ids.add(rid)
            return True
        if ALL in self.file_ids:
            self.used_file_ids.add(ALL)
            return True
        ids = self.line_ids.get(line, ())
        if rid in ids:
            self.used_line_ids.setdefault(line, set()).add(rid)
            return True
        if ALL in ids:
            self.used_line_ids.setdefault(line, set()).add(ALL)
            return True
        return False

    def unused(self) -> list[tuple[int, str]]:
        """``(line, id)`` pairs for pragmas that suppressed nothing.

        Line 0 stands for file-scoped pragmas.  Only meaningful after a
        run of the *full* rule set — with ``--select``/``--ignore`` a
        pragma may look dead simply because its rule never executed.
        """
        dead: list[tuple[int, str]] = []
        for rid in sorted(self.file_ids - self.used_file_ids):
            dead.append((0, rid))
        for line, ids in sorted(self.line_ids.items()):
            used = self.used_line_ids.get(line, set())
            dead.extend((line, rid) for rid in sorted(ids - used))
        return dead
