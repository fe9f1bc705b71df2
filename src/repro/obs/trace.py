"""Structured trace bus and the JSONL trace format.

A :class:`Tracer` is a simulation-wide event log: components emit typed
records — ``engine.event``, ``macr.update``, ``port.drop``, ``tcp.timeout``
— with the simulation timestamp and a small dict of fields.  It follows
the repository's hook discipline (docs/PERFORMANCE.md): components capture
a *gated* tracer reference at construction time via :meth:`Tracer.gate`,
``None`` when the category is disabled, so a hot path with tracing off
pays exactly one ``is None`` check (and an ungated emit raises
``AttributeError`` on the untraced runs the test suite makes).

Everything recorded is derived from simulation state only — timestamps
are ``Simulator.now``, never the wall clock — so two runs of the same
configuration produce byte-identical traces, and the golden-trace suite
proves tracing changes no simulated outcome.

The on-disk format is JSON Lines: one header object (schema + version +
metadata), then one object per event in emission order::

    {"schema": "repro.obs.trace", "version": 1, "events": 1234, ...}
    {"ts": 0.00012, "kind": "port.enqueue", "comp": "S1->S2", "fields": {...}}

``validate_trace_jsonl`` checks the invariants CI relies on; the Chrome
converter (:mod:`repro.obs.chrome`) consumes the same event dicts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Iterable, Iterator

#: Schema identifier stamped into every trace header.
TRACE_SCHEMA = "repro.obs.trace"
#: Bump when the header/event layout changes.
TRACE_VERSION = 1

#: Trace categories wired into the simulator (the part of ``kind``
#: before the first dot).  ``Tracer(categories=...)`` validates against
#: this set so a typo disables nothing silently.
CATEGORIES = frozenset(
    {"engine", "fluid", "macr", "port", "switch", "router", "tcp"})


class Tracer:
    """Append-only structured event log.

    ``categories=None`` records everything; otherwise only components
    whose category is named capture a live reference (the others hold
    ``None`` and skip emission entirely — see :meth:`gate`).
    """

    def __init__(self, categories: Iterable[str] | None = None,
                 meta: dict[str, Any] | None = None):
        if categories is not None:
            categories = frozenset(categories)
            unknown = categories - CATEGORIES
            if unknown:
                raise ValueError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"known: {sorted(CATEGORIES)}")
        self.categories: frozenset[str] | None = categories
        self.meta = dict(meta) if meta else {}
        #: Recorded events, in emission order: (ts, kind, comp, fields).
        self.events: list[tuple[float, str, str, dict[str, Any]]] = []
        self._append = self.events.append

    # ------------------------------------------------------------------
    def enabled(self, category: str) -> bool:
        """Whether events of ``category`` are being recorded."""
        return self.categories is None or category in self.categories

    def gate(self, category: str) -> "Tracer | None":
        """``self`` when ``category`` is enabled, else ``None``.

        Components call this once at construction and keep the result;
        the per-event cost of a disabled category is then the same
        ``is None`` check as a fully absent tracer.
        """
        return self if self.enabled(category) else None

    def emit(self, ts: float, kind: str, comp: str, **fields: Any) -> None:
        """Record one event.  ``kind`` is ``<category>.<name>``; ``comp``
        names the emitting component (port, flow, switch...)."""
        self._append((ts, kind, comp, fields))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    def kinds(self) -> Counter:
        """Event count per kind (test/summary helper)."""
        return Counter(kind for _ts, kind, _comp, _fields in self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cats = ("all" if self.categories is None
                else ",".join(sorted(self.categories)))
        return f"<Tracer events={len(self.events)} categories={cats}>"


# ----------------------------------------------------------------------
# JSONL serialization
# ----------------------------------------------------------------------
def event_dicts(tracer: Tracer) -> Iterator[dict[str, Any]]:
    """The tracer's events as JSON-ready dicts, in emission order."""
    for ts, kind, comp, fields in tracer.events:
        yield {"ts": ts, "kind": kind, "comp": comp, "fields": fields}


def trace_header(tracer: Tracer,
                 meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """The header object written as the first JSONL line."""
    header: dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "version": TRACE_VERSION,
        "events": len(tracer.events),
        "categories": (None if tracer.categories is None
                       else sorted(tracer.categories)),
    }
    merged = dict(tracer.meta)
    if meta:
        merged.update(meta)
    if merged:
        header["meta"] = merged
    return header


def write_trace_jsonl(path: str, tracer: Tracer,
                      meta: dict[str, Any] | None = None) -> None:
    """Write header + events as JSON Lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(trace_header(tracer, meta), sort_keys=True))
        fh.write("\n")
        for event in event_dicts(tracer):
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")


def read_trace_jsonl(path: str) -> tuple[dict[str, Any],
                                         list[dict[str, Any]]]:
    """Read a JSONL trace back as ``(header, events)``."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    events = [json.loads(line) for line in lines[1:]]
    return header, events


#: Keys every event line must carry, with their accepted types.
_EVENT_KEYS = {"ts": (int, float), "kind": str, "comp": str, "fields": dict}


def validate_trace_jsonl(path: str) -> list[str]:
    """Check the trace invariants; returns human-readable problems.

    An empty list means the file is a well-formed trace: parseable
    JSONL, a correct header, complete event records, non-decreasing
    timestamps, and an event count matching the header's.
    """
    problems: list[str] = []
    try:
        header, events = read_trace_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable trace: {exc}"]
    if not isinstance(header, dict):
        return ["header line is not a JSON object"]
    if header.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"header schema {header.get('schema')!r}, "
            f"expected {TRACE_SCHEMA!r}")
    if header.get("version") != TRACE_VERSION:
        problems.append(
            f"header version {header.get('version')!r}, "
            f"expected {TRACE_VERSION}")
    declared = header.get("events")
    if declared is not None and declared != len(events):
        problems.append(
            f"header declares {declared} events, file has {len(events)}")
    last_ts = None
    for i, event in enumerate(events, start=2):  # line numbers, 1-based
        if not isinstance(event, dict):
            problems.append(f"line {i}: event is not a JSON object")
            continue
        for key, types in _EVENT_KEYS.items():
            value = event.get(key)
            if not isinstance(value, types) or isinstance(value, bool):
                problems.append(
                    f"line {i}: bad or missing {key!r} "
                    f"({type(value).__name__})")
                break
        else:
            ts = event["ts"]
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"line {i}: timestamp {ts} decreases "
                    f"(previous {last_ts})")
            last_ts = ts
    return problems


def summarize_events(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate a trace: totals, time span, per-kind and per-component
    counts.  The CLI's ``repro obs summarize`` prints this."""
    kinds: Counter = Counter()
    comps: Counter = Counter()
    first_ts = last_ts = None
    total = 0
    for event in events:
        total += 1
        kinds[event["kind"]] += 1
        comps[event["comp"]] += 1
        ts = event["ts"]
        if first_ts is None:
            first_ts = ts
        last_ts = ts
    return {
        "events": total,
        "first_ts": first_ts,
        "last_ts": last_ts,
        "kinds": dict(sorted(kinds.items())),
        "components": dict(sorted(comps.items())),
    }
