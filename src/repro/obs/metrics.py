"""Metrics registry: counters, gauges, histograms keyed by name + labels.

The gateway (:mod:`repro.serve`) keeps its request, queue and admission
metrics in a :class:`MetricsRegistry` and exposes them as Prometheus
text (``GET /metrics``); :meth:`MetricsRegistry.summary` is the flat
scalar view of the same series.  Nothing here is on a simulation hot
path (the per-event observation channel is :mod:`repro.obs.trace`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator

#: Default histogram buckets: generic log-ish ladder wide enough for
#: queue lengths (cells/packets), rates (Mb/s), and windows (bytes).
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                   250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0)

_LabelKey = tuple[tuple[str, str], ...]


class Counter:
    """Monotonically non-decreasing total."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount!r}")
        self.value += amount


class Gauge:
    """A value that can go anywhere (last observation wins)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets:
            raise ValueError("need at least one bucket bound")
        self.buckets = tuple(sorted(buckets))
        #: counts[i] observations fell in bucket i; the final slot is
        #: the overflow (> last bound).  Cumulative sums are derived at
        #: export time.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket bound, ending with the total."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """Named metrics, each a family of label-keyed series.

    Metric names follow the Prometheus convention
    (``repro_port_drops_total``); labels distinguish instances
    (``{port="S1->S2", vc="s0"}``).  Getting an existing (name, labels)
    pair returns the same object, so incremental registration composes.
    """

    def __init__(self) -> None:
        #: name -> label-key -> metric object (insertion-ordered).
        self._metrics: dict[str, dict[_LabelKey, Any]] = {}
        self._types: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(self, cls: type, name: str, labels: dict[str, str],
             **kwargs: Any) -> Any:
        known = self._types.get(name)
        if known is not None and known != cls.kind:
            raise TypeError(
                f"metric {name!r} is a {known}, not a {cls.kind}")
        key: _LabelKey = tuple(sorted(labels.items()))
        family = self._metrics.setdefault(name, {})
        metric = family.get(key)
        if metric is None:
            metric = family[key] = cls(**kwargs)
            self._types[name] = cls.kind
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None,
                  **labels: str) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    def collect(self) -> Iterator[tuple[str, str, _LabelKey, Any]]:
        """Every (name, type, label-key, metric), registration-ordered
        within each family."""
        for name, family in self._metrics.items():
            kind = self._types[name]
            for key, metric in family.items():
                yield name, kind, key, metric

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for name, family in self._metrics.items():
            kind = self._types[name]
            lines.append(f"# TYPE {name} {kind}")
            for key, metric in family.items():
                if kind == "histogram":
                    cumulative = metric.cumulative()
                    for bound, total in zip(metric.buckets, cumulative):
                        lines.append(_sample(
                            f"{name}_bucket",
                            key + (("le", _fmt(bound)),), total))
                    lines.append(_sample(
                        f"{name}_bucket", key + (("le", "+Inf"),),
                        metric.count))
                    lines.append(_sample(f"{name}_sum", key, metric.sum))
                    lines.append(_sample(f"{name}_count", key,
                                         metric.count))
                else:
                    lines.append(_sample(name, key, metric.value))
        return "\n".join(lines) + "\n" if lines else ""

    def summary(self) -> dict[str, float]:
        """Flat scalar view for manifests: one entry per counter and
        gauge series, ``_count``/``_sum`` per histogram series."""
        out: dict[str, float] = {}
        for name, kind, key, metric in self.collect():
            label = name + _label_suffix(key)
            if kind == "histogram":
                out[name + "_count" + _label_suffix(key)] = metric.count
                out[name + "_sum" + _label_suffix(key)] = metric.sum
            else:
                out[label] = metric.value
        return out


def _fmt(value: float) -> str:
    """Compact numeric text (Prometheus accepts any float literal)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: ``\\``, ``"``, newline."""
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _label_suffix(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


def _sample(name: str, key: _LabelKey, value: float) -> str:
    return f"{name}{_label_suffix(key)} {_fmt(value)}"

