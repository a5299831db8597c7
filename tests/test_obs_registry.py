"""The metrics registry: instruments, quantiles, snapshots, validation."""

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.registry import (
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    set_enabled,
    validate_snapshot,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registry_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_direct_value_writes_visible_in_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("x").value += 3
        assert reg.snapshot()["counters"]["x"] == 3


class TestGauge:
    def test_stored_value(self):
        g = Gauge("g")
        g.set(7.5)
        assert g.value == 7.5

    def test_callable_gauge_reads_live(self):
        box = [1.0]
        reg = MetricsRegistry()
        reg.gauge("live", fn=lambda: box[0])
        assert reg.snapshot()["gauges"]["live"] == 1.0
        box[0] = 9.25
        assert reg.snapshot()["gauges"]["live"] == 9.25


class TestHistogram:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", low=0.0, high=10.0)
        with pytest.raises(ObservabilityError):
            Histogram("h", low=10.0, high=1.0)

    def test_count_sum_min_max(self):
        h = Histogram("h", low=1.0, high=1000.0)
        for v in (2.0, 20.0, 200.0):
            h.record(v)
        assert h.count == 3
        assert h.total == pytest.approx(222.0)
        assert h.min == 2.0 and h.max == 200.0
        assert h.mean == pytest.approx(74.0)

    def test_percentiles_within_bucket_resolution(self):
        h = Histogram("h", low=0.1, high=10_000.0, buckets=64)
        values = [float(i) for i in range(1, 1001)]
        for v in values:
            h.record(v)
        # Log-bucket quantiles are exact to within one bucket ratio.
        ratio = (10_000.0 / 0.1) ** (1.0 / 63)
        assert h.p50 == pytest.approx(500.0, rel=ratio - 1)
        assert h.p95 == pytest.approx(950.0, rel=ratio - 1)
        assert h.p99 == pytest.approx(990.0, rel=ratio - 1)

    def test_underflow_and_overflow_samples(self):
        h = Histogram("h", low=1.0, high=100.0, buckets=8)
        h.record(0.001)  # below the lowest bound
        h.record(5000.0)  # above the highest bound
        assert h.count == 2
        assert h.percentile(100.0) == 5000.0  # overflow reports observed max
        bounds = [b for b, _ in h.nonzero_buckets()]
        assert "inf" in bounds

    def test_empty_percentile_is_zero(self):
        assert Histogram("h", low=1.0, high=10.0).p99 == 0.0

    def test_summary_shape(self):
        h = Histogram("h", low=1.0, high=100.0, unit="us")
        h.record(10.0)
        s = h.summary()
        assert s["unit"] == "us"
        assert s["count"] == 1
        assert s["p50"] > 0
        assert isinstance(s["buckets"], list)

    def test_disabled_flag_stops_recording(self):
        h = Histogram("h", low=1.0, high=100.0)
        try:
            set_enabled(False)
            assert not enabled()
            h.record(10.0)
        finally:
            set_enabled(True)
        assert h.count == 0
        h.record(10.0)
        assert h.count == 1


class TestRegistry:
    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")
        with pytest.raises(ObservabilityError):
            reg.histogram("x")

    def test_read_through_counter(self):
        """``counter(name, fn=)`` reads its source at snapshot time, like a
        callable gauge, and stays a counter for every reader."""
        reg = MetricsRegistry()
        tally = {"n": 0}
        counter = reg.counter("server.sender.instructions", fn=lambda: tally["n"])
        assert isinstance(counter, Counter)
        tally["n"] = 7
        assert counter.value == 7
        assert reg.snapshot()["counters"]["server.sender.instructions"] == 7
        # Get-or-create returns the same instrument on repeat lookups.
        assert reg.counter("server.sender.instructions") is counter
        with pytest.raises(ObservabilityError):
            reg.gauge("server.sender.instructions")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]


class TestSnapshot:
    def make_doc(self):
        reg = MetricsRegistry()
        reg.counter("reactor.ticks").inc(5)
        reg.gauge("net.srtt", fn=lambda: 80.0)
        reg.histogram("lat", low=1.0, high=100.0).record(12.0)
        return reg.snapshot()

    def test_snapshot_is_json_round_trippable(self):
        doc = self.make_doc()
        assert doc["schema"] == SNAPSHOT_SCHEMA
        again = json.loads(json.dumps(doc))
        validate_snapshot(again)

    def test_validate_rejects_wrong_schema(self):
        doc = self.make_doc()
        doc["schema"] = "bogus/9"
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_validate_rejects_missing_section(self):
        doc = self.make_doc()
        del doc["gauges"]
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_validate_rejects_non_numeric_counter(self):
        doc = self.make_doc()
        doc["counters"]["reactor.ticks"] = "five"
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)
        doc["counters"]["reactor.ticks"] = True
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_validate_rejects_malformed_histogram(self):
        doc = self.make_doc()
        del doc["histograms"]["lat"]["p95"]
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_snapshot_has_no_infinities(self):
        doc = self.make_doc()
        # Empty histograms must not leak math.inf into JSON documents.
        reg = MetricsRegistry()
        reg.histogram("empty")
        doc = reg.snapshot()
        assert doc["histograms"]["empty"]["min"] == 0.0
        assert not any(
            isinstance(v, float) and math.isinf(v)
            for v in doc["histograms"]["empty"].values()
            if isinstance(v, (int, float))
        )
