"""The metrics registry: instruments, quantiles, snapshots, validation."""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.registry import (
    _LABEL_INDEX,
    GRID_REL_ERROR,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SnapshotDelta,
    apply_delta,
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
    def test_count_sum_min_max(self):
        h = Histogram("h")
        for v in (2.0, 20.0, 200.0):
            h.record(v)
        assert h.count == 3
        assert h.total == pytest.approx(222.0)
        assert h.min == 2.0 and h.max == 200.0
        assert h.mean == pytest.approx(74.0)

    def test_percentiles_within_bucket_resolution(self):
        h = Histogram("h")
        values = [float(i) for i in range(1, 1001)]
        for v in values:
            h.record(v)
        # Nearest-rank exact quantiles of 1..1000 are 500, 950 and 990.
        assert h.p50 == pytest.approx(500.0, rel=GRID_REL_ERROR)
        assert h.p95 == pytest.approx(950.0, rel=GRID_REL_ERROR)
        assert h.p99 == pytest.approx(990.0, rel=GRID_REL_ERROR)

    def test_underflow_and_overflow_samples(self):
        h = Histogram("h")
        h.record(1e-4)  # below the lowest bound
        h.record(5e7)  # above the highest bound
        assert h.count == 2
        assert h.percentile(50.0) == 1e-4  # underflow reports observed min
        assert h.percentile(100.0) == 5e7  # overflow reports observed max
        bounds = [b for b, _ in h.summary()["buckets"]]
        assert "inf" in bounds

    def test_all_zero_samples_report_zero(self):
        """Zero lands in the underflow bucket, which reports the observed
        minimum — not the grid's lowest bound."""
        h = Histogram("h")
        for _ in range(3):
            h.record(0.0)
        assert h.p50 == 0.0 and h.p99 == 0.0
        summary = h.summary()
        assert (summary["p50"], summary["p95"], summary["p99"]) == (0.0, 0.0, 0.0)

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").p99 == 0.0

    def test_summary_shape(self):
        h = Histogram("h", unit="us")
        h.record(10.0)
        s = h.summary()
        assert s["unit"] == "us"
        assert s["count"] == 1
        assert s["p50"] > 0
        assert isinstance(s["buckets"], list)

    def test_disabled_flag_stops_recording(self):
        h = Histogram("h")
        try:
            set_enabled(False)
            assert not enabled()
            h.record(10.0)
        finally:
            set_enabled(True)
        assert h.count == 0
        h.record(10.0)
        assert h.count == 1

    def test_grid_bounds_are_distinct_in_summaries(self):
        """Every grid bound keeps its own label at summary precision, so
        the lowest bounds (well below 0.05) no longer collapse."""
        h = Histogram("h")
        for v in (0.00105, 0.0011, 0.00115, 0.0012):
            h.record(v)
        labels = [b for b, _ in h.summary()["buckets"]]
        assert len(labels) == len(set(labels)) == 4
        assert Histogram.from_summary(h.summary())._counts == h._counts


def _histogram(samples, unit="ms"):
    h = Histogram("h", unit=unit)
    for v in samples:
        h.record(v)
    return h


def _nearest_rank(samples, p):
    ordered = sorted(samples)
    return ordered[math.ceil(len(ordered) * p / 100.0) - 1]


#: Samples on the grid's resolved range, [1e-3, 1e7].
_IN_RANGE = st.floats(min_value=1e-3, max_value=1e7)
#: Any non-negative sample, including zero, underflow and overflow.
_ANY = st.floats(min_value=0.0, max_value=1e9)


class TestHistogramGridProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_IN_RANGE, min_size=1, max_size=200))
    def test_quantiles_within_two_percent(self, samples):
        h = _histogram(samples)
        for p in (50.0, 95.0, 99.0):
            exact = _nearest_rank(samples, p)
            # A sample exactly on a bound sits exactly 2 % from its
            # bucket's midpoint; the 1e-9 factor absorbs float rounding.
            assert abs(h.percentile(p) - exact) <= (
                GRID_REL_ERROR * exact * (1 + 1e-9)
            )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_ANY, max_size=100), st.data())
    def test_merge_of_split_equals_whole(self, samples, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(samples)))
        whole = _histogram(samples)
        merged = Histogram("m").merge(_histogram(samples[:cut])).merge(
            _histogram(samples[cut:])
        )
        assert merged._counts == whole._counts
        assert merged.count == whole.count
        assert (merged.min, merged.max) == (whole.min, whole.max)
        # Float addition order differs between the split and the whole.
        assert merged.total == pytest.approx(whole.total, rel=1e-12)
        ours, theirs = merged.summary(), whole.summary()
        for key in ("sum", "mean"):
            assert ours.pop(key) == pytest.approx(theirs.pop(key), rel=1e-9, abs=2e-3)
        assert ours == theirs

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_ANY, max_size=100), st.sampled_from(["ms", "us"]))
    def test_summary_round_trip_is_identity(self, samples, unit):
        h = _histogram(samples, unit)
        summary = json.loads(json.dumps(h.summary()))
        rebuilt = Histogram.from_summary(summary)
        assert rebuilt._counts == h._counts
        assert rebuilt.summary() == summary

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_ANY, max_size=40), st.lists(_ANY, min_size=1, max_size=40))
    def test_delta_reassembly_unchanged(self, before, after):
        registry = MetricsRegistry()
        registry.histogram("a_ms").record(1.0)
        for v in before:
            registry.histogram("b_ms").record(v)
        feed = SnapshotDelta(registry)
        base = feed.prime()
        for v in after:
            registry.histogram("b_ms").record(v)
        doc = feed.collect()
        assert set(doc["histograms"]) == {"b_ms"}
        merged = apply_delta(base, json.loads(json.dumps(doc)))
        assert merged == registry.snapshot()
        summary = merged["histograms"]["b_ms"]
        assert Histogram.from_summary(summary).summary() == summary

    @settings(max_examples=100, deadline=None)
    @given(_IN_RANGE)
    def test_off_grid_bound_raises(self, bound):
        assume(bound not in _LABEL_INDEX)
        summary = {"unit": "ms", "count": 1, "buckets": [[bound, 1]]}
        with pytest.raises(ObservabilityError):
            Histogram.from_summary(summary)


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
        reg.histogram("lat").record(12.0)
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
