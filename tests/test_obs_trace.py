"""The span tracer: recording, ring bounds, exporters, clock binding."""

import json

from repro.obs.registry import set_enabled
from repro.obs.trace import SpanTracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestRecording:
    def test_span_records_start_and_duration(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        with tracer.span("work", cat="test", detail=1):
            clock.t = 12.5
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["ts_ms"] == 0.0
        assert event["dur_ms"] == 12.5
        assert event["args"] == {"detail": 1}

    def test_instant_records_timestamp(self):
        clock = FakeClock()
        clock.t = 3.0
        tracer = SpanTracer(clock)
        tracer.instant("mark", cat="k", index=7)
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["ts_ms"] == 3.0
        assert event["args"]["index"] == 7

    def test_category_filter(self):
        tracer = SpanTracer(FakeClock())
        tracer.instant("a", cat="one")
        tracer.instant("b", cat="two")
        assert [e["name"] for e in tracer.events(cat="two")] == ["b"]
        assert len(tracer.events()) == 2

    def test_ring_buffer_bounded(self):
        tracer = SpanTracer(FakeClock(), capacity=10)
        for i in range(25):
            tracer.instant(f"e{i}")
        assert len(tracer) == 10
        assert tracer.events()[0]["name"] == "e15"  # oldest were evicted

    def test_ring_wrap_counts_overwrites_in_order(self):
        clock = FakeClock()
        tracer = SpanTracer(clock, capacity=4)
        for i in range(11):
            clock.t = float(i)
            if i % 2:
                tracer.record_span(f"s{i}", float(i) - 0.5)
            else:
                tracer.instant(f"i{i}", index=i)
        assert len(tracer) == 4
        assert tracer.dropped_events == 7
        events = tracer.events()
        assert [e["name"] for e in events] == ["s7", "i8", "s9", "i10"]
        assert [e["ts_ms"] for e in events] == [6.5, 8.0, 8.5, 10.0]
        assert events[1]["args"] == {"index": 8} and events[2]["args"] == {}
        assert [e["name"] for e in tracer.trace_events()] == ["s7", "i8", "s9", "i10"]

    def test_clear(self):
        tracer = SpanTracer(FakeClock(), capacity=2)
        for _ in range(3):
            tracer.instant("x")
        assert tracer.dropped_events == 1
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped_events == 0
        tracer.instant("y")
        assert [e["name"] for e in tracer.events()] == ["y"]

    def test_disabled_flag_skips_spans_and_instants(self):
        tracer = SpanTracer(FakeClock())
        try:
            set_enabled(False)
            with tracer.span("quiet"):
                pass
            tracer.instant("quiet")
        finally:
            set_enabled(True)
        assert len(tracer) == 0

    def test_span_recorded_even_when_body_raises(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        try:
            with tracer.span("boom"):
                clock.t = 5.0
                raise ValueError("body failed")
        except ValueError:
            pass
        (event,) = tracer.events()
        assert event["dur_ms"] == 5.0


class TestExporters:
    def fill(self, tracer, clock):
        with tracer.span("seal", cat="crypto"):
            clock.t += 1.25
        tracer.instant("keystroke", cat="keystroke", index=1)

    def test_chrome_export_shape(self, tmp_path):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        self.fill(tracer, clock)
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(str(path)) == 2
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"dropped_events": 0}
        span, instant = doc["traceEvents"]
        # Chrome trace_event timestamps are microseconds.
        assert span["ph"] == "X"
        assert span["dur"] == 1250.0
        assert span["pid"] == 1 and span["tid"] == 1
        assert instant["ph"] == "i"
        assert instant["s"] == "g"
        assert instant["ts"] == 1250.0

    def test_chrome_export_reports_overwrites(self, tmp_path):
        clock = FakeClock()
        tracer = SpanTracer(clock, capacity=1)
        self.fill(tracer, clock)
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(str(path)) == 1
        doc = json.loads(path.read_text())
        assert doc["otherData"] == {"dropped_events": 1}
        assert [e["name"] for e in doc["traceEvents"]] == ["keystroke"]

    def test_jsonl_export(self, tmp_path):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        self.fill(tracer, clock)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "seal"
        assert first["dur_ms"] == 1.25


class TestReactorBinding:
    def test_sim_reactor_spans_use_sim_time(self):
        from repro.runtime.reactor import SimReactor

        reactor = SimReactor()
        reactor.call_later(50.0, lambda: reactor.tracer.instant("fired"))
        with reactor.tracer.span("window"):
            reactor.run_for(200.0)
        instant, span = reactor.tracer.events()
        assert instant["ts_ms"] == 50.0
        assert span["ts_ms"] == 0.0
        assert span["dur_ms"] == 200.0
