"""Metrics registry: counters, gauges, histograms keyed by name + labels.

The simulator already measures everything the paper's figures need —
:class:`repro.sim.Probe` series, the per-port ``arrivals``/``drops``
counters, ``drops_by_vc`` attribution.  This module gives that state a
uniform export surface: a :class:`MetricsRegistry` that run handles
register into (:func:`registry_from_run`) and two exporters — Prometheus
text exposition and JSON — so a committed benchmark result or a CI run
can be inspected with standard tooling.

Registration happens *after* a run completes; nothing here is on a hot
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

    # ------------------------------------------------------------------
    def register_probe(self, name: str, probe: Any, **labels: str) -> None:
        """Fold one probe series in: sample count, last value, and a
        value histogram — the summary a series reduces to once the raw
        points live in the trace/golden artifacts."""
        n = len(probe)
        self.counter(f"{name}_samples_total", **labels).inc(n)
        if n:
            self.gauge(f"{name}_last", **labels).set(probe.values[-1])
            hist = self.histogram(name, **labels)
            observe = hist.observe
            for value in probe.values:
                observe(value)

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

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dump of every metric family."""
        families = []
        for name, family in self._metrics.items():
            kind = self._types[name]
            series = []
            for key, metric in family.items():
                entry: dict[str, Any] = {"labels": dict(key)}
                if kind == "histogram":
                    entry["buckets"] = list(metric.buckets)
                    entry["counts"] = list(metric.counts)
                    entry["sum"] = metric.sum
                    entry["count"] = metric.count
                else:
                    entry["value"] = metric.value
                series.append(entry)
            families.append({"name": name, "type": kind, "series": series})
        return {"metrics": families}

    def summary(self) -> dict[str, float]:
        """Flat scalar view for run manifests: one entry per counter and
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
    if value == int(value):  # lint: disable=FLT001
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


# ----------------------------------------------------------------------
# run-handle registration
# ----------------------------------------------------------------------
def registry_from_run(run: Any) -> MetricsRegistry:
    """Build a registry from an executed scenario run handle."""
    # imported here, not at module top: the simulation tiers are
    # optional for metrics consumers and must not become obs-wide
    # dependencies
    from repro.fluid.results import FluidRun, HybridRun
    from repro.scenarios.generic import AtmRun
    from repro.scenarios.tcp import TcpRun

    registry = MetricsRegistry()
    if isinstance(run, AtmRun):
        _register_atm(registry, run)
    elif isinstance(run, TcpRun):
        _register_tcp(registry, run)
    elif isinstance(run, HybridRun):
        _register_atm(registry, run.atm)
        _register_fluid(registry, run.fluid)
    elif isinstance(run, FluidRun):
        _register_fluid(registry, run)
    else:
        raise TypeError(
            f"unsupported run handle {type(run).__name__}; "
            "expected AtmRun, TcpRun, FluidRun, or HybridRun")
    return registry


def _register_sim(registry: MetricsRegistry, run: Any) -> None:
    sim = run.net.sim
    registry.gauge("repro_sim_time_seconds").set(sim.now)
    registry.counter("repro_sim_executed_events_total").inc(
        sim.executed_events)


def _register_atm(registry: MetricsRegistry, run: Any) -> None:
    _register_sim(registry, run)
    for vc, session in sorted(run.net.sessions.items()):
        src, dst = session.source, session.destination
        registry.counter("repro_cells_sent_total", vc=vc).inc(
            src.cells_sent)
        registry.counter("repro_rm_sent_total", vc=vc).inc(src.rm_sent)
        registry.counter("repro_data_received_total", vc=vc).inc(
            dst.data_received)
        registry.gauge("repro_acr_mbps", vc=vc).set(src.acr)
        registry.register_probe("repro_session_rate_mbps",
                                session.rate_probe, vc=vc)
    for (a, b), port in sorted(run.net.trunks.items()):
        name = f"{a}->{b}"
        registry.counter("repro_port_arrivals_total", port=name).inc(
            port.arrivals)
        registry.counter("repro_port_departures_total", port=name).inc(
            port.departures)
        registry.counter("repro_port_drops_total", port=name).inc(
            port.drops)
        for vc, drops in sorted(port.drops_by_vc.items()):
            registry.counter("repro_port_vc_drops_total",
                             port=name, vc=vc).inc(drops)
        registry.register_probe("repro_port_queue_cells",
                                port.queue_probe, port=name)
    macr_probe = run.macr_probe
    if macr_probe is not None:
        registry.register_probe("repro_macr_mbps", macr_probe,
                                port=run.bottleneck.name)


def _register_fluid(registry: MetricsRegistry, run: Any) -> None:
    # fluid networks have no event kernel: the interval counter is both
    # clock source and "event" count (distinct names keep a hybrid
    # run's packet kernel metrics untouched)
    registry.gauge("repro_fluid_time_seconds").set(run.net.now)
    registry.counter("repro_fluid_steps_total").inc(run.net.steps)
    for name, trunk in sorted(run.net.trunks.items()):
        registry.gauge("repro_fluid_macr_mbps", trunk=name).set(
            trunk.filter.macr)
        registry.gauge("repro_fluid_grant_mbps", trunk=name).set(
            trunk.grant_now)
        registry.register_probe("repro_fluid_trunk_queue_cells",
                                trunk.queue_probe, trunk=name)
        registry.register_probe("repro_fluid_offered_mbps",
                                trunk.offered_probe, trunk=name)
    for cohort in run.net.cohorts:
        registry.gauge("repro_fluid_flows", cohort=cohort.name).set(
            cohort.count)
        registry.gauge("repro_fluid_acr_mbps", cohort=cohort.name).set(
            cohort.acr)
        probe = cohort.rate_probe
        if len(probe):
            registry.register_probe("repro_fluid_cohort_rate_mbps",
                                    probe, cohort=cohort.name)


def _register_tcp(registry: MetricsRegistry, run: Any) -> None:
    _register_sim(registry, run)
    for name, flow in sorted(run.net.flows.items()):
        src = flow.source
        registry.counter("repro_bytes_received_total", flow=name).inc(
            flow.sink.bytes_received)
        registry.counter("repro_segments_sent_total", flow=name).inc(
            src.segments_sent)
        registry.counter("repro_retransmits_total", flow=name).inc(
            src.retransmits)
        registry.counter("repro_timeouts_total", flow=name).inc(
            src.timeouts)
        registry.counter("repro_fast_retransmits_total", flow=name).inc(
            src.fast_retransmits)
        registry.gauge("repro_cwnd_bytes", flow=name).set(src.cwnd)
        registry.register_probe("repro_flow_goodput_mbps",
                                flow.goodput_probe, flow=name)
    for (a, b), port in sorted(run.net.trunks.items()):
        pname = f"{a}->{b}"
        registry.counter("repro_port_arrivals_total", port=pname).inc(
            port.arrivals)
        registry.counter("repro_port_departures_total", port=pname).inc(
            port.departures)
        registry.counter("repro_port_drops_total", port=pname).inc(
            port.drops)
        for flow, drops in sorted(port.drops_by_flow.items()):
            registry.counter("repro_port_flow_drops_total",
                             port=pname, flow=flow).inc(drops)
        registry.register_probe("repro_port_queue_packets",
                                port.queue_probe, port=pname)
