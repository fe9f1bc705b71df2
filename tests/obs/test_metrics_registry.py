"""Unit tests for the metrics registry and its exporters."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram


# ----------------------------------------------------------------------
# metric primitives
# ----------------------------------------------------------------------

def test_counter_accumulates_and_rejects_negative():
    r = MetricsRegistry()
    c = r.counter("repro_x_total", port="p")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_last_write_wins():
    r = MetricsRegistry()
    g = r.gauge("repro_x")
    g.set(5.0)
    g.set(-2.0)
    assert g.value == -2.0


def test_histogram_bucket_edges_are_inclusive():
    h = Histogram(buckets=(1.0, 10.0))
    for v in (0.5, 1.0, 5.0, 10.0, 99.0):
        h.observe(v)
    # le="1" holds 0.5 and the boundary value 1.0; le="10" adds 5 and 10;
    # 99 overflows
    assert h.counts == [2, 2, 1]
    assert h.cumulative() == [2, 4, 5]
    assert h.count == 5
    assert h.sum == pytest.approx(115.5)


def test_histogram_needs_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=())


def test_same_name_and_labels_share_one_metric():
    r = MetricsRegistry()
    assert r.counter("repro_x_total", vc="a") is (
        r.counter("repro_x_total", vc="a"))
    assert r.counter("repro_x_total", vc="a") is not (
        r.counter("repro_x_total", vc="b"))


def test_kind_mismatch_raises():
    r = MetricsRegistry()
    r.counter("repro_x")
    with pytest.raises(TypeError, match="is a counter, not a gauge"):
        r.gauge("repro_x")


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

def small_registry():
    r = MetricsRegistry()
    r.counter("repro_drops_total", port="p").inc(4)
    r.gauge("repro_acr_mbps", vc="s0").set(37.5)
    h = r.histogram("repro_queue_cells", buckets=(1.0, 10.0), port="p")
    for v in (0.0, 5.0, 50.0):
        h.observe(v)
    return r


def test_prometheus_text_format():
    text = small_registry().prometheus_text()
    lines = text.splitlines()
    assert "# TYPE repro_drops_total counter" in lines
    assert 'repro_drops_total{port="p"} 4' in lines
    assert 'repro_acr_mbps{vc="s0"} 37.5' in lines
    assert 'repro_queue_cells_bucket{port="p",le="1"} 1' in lines
    assert 'repro_queue_cells_bucket{port="p",le="10"} 2' in lines
    assert 'repro_queue_cells_bucket{port="p",le="+Inf"} 3' in lines
    assert 'repro_queue_cells_sum{port="p"} 55' in lines
    assert 'repro_queue_cells_count{port="p"} 3' in lines
    assert text.endswith("\n")
    assert MetricsRegistry().prometheus_text() == ""


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ----------------------------------------------------------------------
# histogram edge cases the serve latency tracking relies on
# ----------------------------------------------------------------------

def test_empty_histogram_exports_zero_rows():
    r = MetricsRegistry()
    r.histogram("repro_latency_seconds", buckets=(0.1, 1.0), route="/x")
    lines = r.prometheus_text().splitlines()
    assert 'repro_latency_seconds_bucket{route="/x",le="0.1"} 0' in lines
    assert 'repro_latency_seconds_bucket{route="/x",le="+Inf"} 0' in lines
    assert 'repro_latency_seconds_sum{route="/x"} 0' in lines
    assert 'repro_latency_seconds_count{route="/x"} 0' in lines


def test_inf_bucket_counts_overflow_observations():
    h = Histogram(buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 100.0, 1e9, float("inf")):
        h.observe(v)
    # +Inf row is the total count: overflow observations (and literal
    # inf) land there and nowhere else
    assert h.cumulative() == [1, 2, 5]
    assert h.count == 5
    assert h.counts[-1] == 3


def test_prometheus_label_values_are_escaped():
    r = MetricsRegistry()
    r.counter("repro_odd_total", port='he said "hi"\\\n').inc()
    line = [l for l in r.prometheus_text().splitlines()
            if l.startswith("repro_odd_total")][0]
    assert line == ('repro_odd_total{port="he said \\"hi\\"\\\\\\n"} 1')
    # still a single physical line — the newline is escaped, not emitted
    assert "\n" not in line



def test_registry_exports_are_consistent():
    # every scalar of the manifest summary is a sample of the text
    # exposition, with the same value
    registry = small_registry()
    assert registry.summary() == {
        'repro_drops_total{port="p"}': 4.0,
        'repro_acr_mbps{vc="s0"}': 37.5,
        'repro_queue_cells_count{port="p"}': 3,
        'repro_queue_cells_sum{port="p"}': 55.0,
    }
    lines = registry.prometheus_text().splitlines()
    for key, value in registry.summary().items():
        assert f"{key} {value:g}" in lines
