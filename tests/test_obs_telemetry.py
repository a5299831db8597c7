"""Telemetry plane: prom exposition, delta feed, pooling, health, sockets."""

import json
import math
import os
import socket
import threading
import time

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DELTA_SCHEMA,
    HEALTH_SCHEMA,
    HealthMonitor,
    HealthRule,
    SnapshotDelta,
    TelemetryServer,
    apply_delta,
    attach_metrics_writer,
    default_fleet_ruleset,
    merge_summaries,
    render_prometheus,
)
from repro.obs import telemetry
from repro.obs.registry import Histogram, MetricsRegistry, validate_snapshot
from repro.runtime.reactor import RealReactor, SimReactor
from repro.simnet.eventloop import EventLoop


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("daemon.datagrams_routed").inc(41)
    registry.counter("server.s3.sender.fragments").inc(7)
    registry.gauge("daemon.sessions_open").set(3.0)
    registry.gauge("server.s3.network.srtt_ms").set(81.25)
    hist = registry.histogram("keystroke.c3.echo_ms", unit="ms")
    for value in (12.0, 55.0, 140.0, 430.0, 2900.0):
        hist.record(value)
    return registry


# ----------------------------------------------------------------------
# Prometheus exposition: reference parser round-trip
# ----------------------------------------------------------------------


def _parse_series(line: str):
    """One exposition line -> (metric, labels, value), honoring escapes."""
    brace = line.index("{")
    metric = line[:brace]
    labels: dict[str, str] = {}
    i = brace + 1
    while line[i] != "}":
        if line[i] == ",":
            i += 1
        eq = line.index("=", i)
        key = line[i:eq]
        assert line[eq + 1] == '"'
        j = eq + 2
        out: list[str] = []
        while line[j] != '"':
            if line[j] == "\\":
                out.append({"n": "\n", "\\": "\\", '"': '"'}[line[j + 1]])
                j += 2
            else:
                out.append(line[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
    return metric, labels, float(line[i + 1 :])


def _parse_prometheus(text: str):
    """Reference parser: reconstructs a snapshot-shaped document."""
    kinds: dict[str, str] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hist_raw: dict[str, dict] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, metric, kind = line.split()
            kinds[metric] = kind
            continue
        if not line or line.startswith("#"):
            continue
        metric, labels, value = _parse_series(line)
        name = labels["name"]
        base = metric
        for suffix in ("_bucket", "_sum", "_count"):
            if metric.endswith(suffix) and kinds.get(metric[: -len(suffix)]) == "histogram":
                base = metric[: -len(suffix)]
        kind = kinds[base]
        if kind == "counter":
            counters[name] = value
        elif kind == "gauge":
            gauges[name] = value
        else:
            entry = hist_raw.setdefault(name, {"buckets": []})
            if metric.endswith("_bucket"):
                le = labels["le"]
                bound = math.inf if le == "+Inf" else float(le)
                entry["buckets"].append((bound, value))
            elif metric.endswith("_sum"):
                entry["sum"] = value
            else:
                entry["count"] = value
    histograms: dict[str, dict] = {}
    for name, entry in hist_raw.items():
        sparse: list[list] = []
        prev = 0.0
        for bound, cumulative in sorted(entry["buckets"], key=lambda b: b[0]):
            if cumulative > prev:
                sparse.append(
                    ["inf" if bound == math.inf else bound, int(cumulative - prev)]
                )
            prev = cumulative
        histograms[name] = {
            "count": int(entry["count"]),
            "sum": entry["sum"],
            "buckets": sparse,
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


class TestPrometheusExposition:
    def test_round_trip_against_reference_parser(self):
        doc = _sample_registry().snapshot()
        parsed = _parse_prometheus(render_prometheus(doc))
        assert parsed["counters"] == doc["counters"]
        assert parsed["gauges"] == doc["gauges"]
        assert set(parsed["histograms"]) == set(doc["histograms"])
        for name, summary in doc["histograms"].items():
            got = parsed["histograms"][name]
            assert got["count"] == summary["count"]
            assert got["sum"] == pytest.approx(summary["sum"])
            assert got["buckets"] == summary["buckets"]

    def test_session_segments_become_labels(self):
        text = render_prometheus(_sample_registry().snapshot())
        assert 'session="s3"' in text
        assert 'session="c3"' in text
        # The full dotted name rides every series, enabling the round-trip.
        assert 'name="server.s3.sender.fragments"' in text

    def test_cumulative_buckets_end_at_inf_equal_to_count(self):
        doc = _sample_registry().snapshot()
        series = [
            _parse_series(line)
            for line in render_prometheus(doc).splitlines()
            if line.startswith("repro_keystroke_echo_ms_bucket")
        ]
        count = doc["histograms"]["keystroke.c3.echo_ms"]["count"]
        inf = [v for _, labels, v in series if labels["le"] == "+Inf"]
        assert inf == [float(count)]
        values = [v for _, labels, v in series]
        assert values == sorted(values)  # cumulative: monotone nondecreasing

    def test_pathological_names_escape_cleanly(self):
        registry = MetricsRegistry()
        weird = 'bench."quoted"\\back\nslash'
        registry.counter(weird).inc(5)
        text = render_prometheus(registry.snapshot())
        metric, labels, value = next(
            _parse_series(line)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        assert labels["name"] == weird
        assert value == 5.0

    def test_rejects_non_snapshot(self):
        with pytest.raises(ObservabilityError):
            render_prometheus({"schema": "bogus/9"})


# ----------------------------------------------------------------------
# Delta feed: prime/collect/apply reassembly
# ----------------------------------------------------------------------


class TestSnapshotDelta:
    def test_feed_reassembles_to_final_snapshot(self):
        registry = _sample_registry()
        delta = SnapshotDelta(registry)
        view = apply_delta(None, json.loads(json.dumps(delta.prime())))
        registry.counter("daemon.datagrams_routed").inc(9)
        registry.gauge("daemon.sessions_open").set(4.0)
        registry.get("keystroke.c3.echo_ms").record(75.0)
        for _ in range(3):  # several quiet + busy rounds
            doc = delta.collect()
            if doc is not None:
                assert doc["schema"] == DELTA_SCHEMA
                view = apply_delta(view, json.loads(json.dumps(doc)))
            registry.counter("server.s3.sender.fragments").inc()
        view = apply_delta(view, delta.collect())
        validate_snapshot(view)
        assert view == registry.snapshot()

    def test_quiet_collect_returns_none_and_ships_only_changes(self):
        registry = _sample_registry()
        delta = SnapshotDelta(registry)
        delta.prime()
        assert delta.collect() is None
        registry.counter("daemon.datagrams_routed").inc()
        doc = delta.collect()
        assert list(doc["counters"]) == ["daemon.datagrams_routed"]
        assert doc["gauges"] == {} and doc["histograms"] == {}
        assert doc["seq"] == 1
        assert delta.collect() is None  # nothing new since

    def test_apply_delta_rejects_unknown_schema(self):
        with pytest.raises(ObservabilityError):
            apply_delta({}, {"schema": "repro.obs.delta/999"})
        with pytest.raises(ObservabilityError):
            apply_delta(None, "not a dict")


# ----------------------------------------------------------------------
# Histogram pooling: merge / from_summary / registry helper
# ----------------------------------------------------------------------


class TestHistogramPooling:
    def test_merge_pools_counts_and_extremes(self):
        a = Histogram("a", unit="ms")
        b = Histogram("b", unit="ms")
        for v in (2.0, 40.0):
            a.record(v)
        for v in (7.0, 900.0):
            b.record(v)
        merged = Histogram("pool").merge(a).merge(b)
        assert merged.count == 4
        assert merged.total == pytest.approx(949.0)
        assert merged.min == 2.0 and merged.max == 900.0
        assert merged.summary()["buckets"] == merge_summaries(
            [a.summary(), b.summary()]
        ).summary()["buckets"]

    def test_merge_empty_histograms(self):
        a = Histogram("a")
        b = Histogram("b")
        assert a.merge(b).count == 0
        assert a.summary()["p95"] == 0.0
        b.record(5.0)
        a.merge(b)
        assert (a.count, a.min, a.max) == (1, 5.0, 5.0)

    def test_merge_rejects_unit_mismatch(self):
        a = Histogram("a", unit="ms")
        with pytest.raises(ObservabilityError):
            a.merge(Histogram("c", unit="us"))

    def test_from_summary_round_trip(self):
        hist = Histogram("echo", unit="ms")
        for v in (3.0, 3.0, 88.0, 450.0, 12_000.0, 9e8):  # + overflow
            hist.record(v)
        rebuilt = Histogram.from_summary(hist.summary())
        assert rebuilt.summary() == hist.summary()

    def test_merge_summaries_empty_iterable(self):
        pooled = merge_summaries([])
        assert pooled.count == 0 and pooled.summary()["p50"] == 0.0

    def test_registry_pool_histograms_by_pattern(self):
        registry = MetricsRegistry()
        for session in ("c1", "c2"):
            h = registry.histogram(f"keystroke.{session}.echo_ms", unit="ms")
            h.record(100.0)
        registry.histogram("other.latency_ms").record(9.0)
        pooled = registry.pool_histograms("keystroke.*echo_ms")
        assert pooled.count == 2
        assert registry.pool_histograms("nothing.matches.*") is None


# ----------------------------------------------------------------------
# Health monitor: hysteresis, burn rates, alerts
# ----------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, monitor, times=1, ms=1000.0):
        for _ in range(times):
            self.now += ms
            monitor.evaluate()


class TestHealthMonitor:
    def _monitor(self, registry, rules):
        clock = _Clock()
        return HealthMonitor(registry, rules, clock=clock), clock

    def test_burn_rate_escalates_after_for_ticks_only(self):
        registry = MetricsRegistry()
        auth = registry.counter("crypto.auth_failures")
        rule = HealthRule.counter_burn(
            "auth_burn", "crypto.auth_failures", warn=1.0, crit=10.0,
            for_ticks=2, clear_ticks=3,
        )
        monitor, clock = self._monitor(registry, [rule])
        clock.tick(monitor, 2)
        assert monitor.level == "ok"
        auth.inc(50)
        clock.tick(monitor)  # first breach: pending, not yet escalated
        assert monitor.level == "ok"
        auth.inc(50)
        clock.tick(monitor)  # second consecutive breach: critical
        assert monitor.level == "critical"
        assert registry.get("daemon.health.level").value == 2.0
        clock.tick(monitor, 2)  # quiet, but clear_ticks=3 holds the alarm
        assert monitor.level == "critical"
        clock.tick(monitor)
        assert monitor.level == "ok"
        transitions = [(a["from"], a["to"]) for a in monitor.alerts_since(0)]
        assert transitions == [("ok", "critical"), ("critical", "ok")]

    def test_interrupted_breach_resets_hysteresis(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("reactor.tick_lag_ms")
        rule = HealthRule.gauge_value(
            "tick_lag", "reactor.tick_lag_ms", warn=250.0, crit=1000.0,
            for_ticks=2, clear_ticks=1,
        )
        monitor, clock = self._monitor(registry, [rule])
        gauge.set(400.0)
        clock.tick(monitor)
        gauge.set(0.0)
        clock.tick(monitor)  # breach streak broken before for_ticks
        gauge.set(400.0)
        clock.tick(monitor)
        assert monitor.level == "ok"
        assert monitor.alerts_since(0) == []

    def test_missing_instruments_and_zero_denominator_stay_ok(self):
        registry = MetricsRegistry()
        registry.gauge("daemon.sessions_open").set(0.0)
        registry.gauge("daemon.sessions_active").set(0.0)
        monitor, clock = self._monitor(registry, default_fleet_ruleset())
        clock.tick(monitor, 6)
        assert monitor.level == "ok"

    def test_spike_rule_fires_in_one_tick(self):
        registry = MetricsRegistry()
        wakes = registry.counter("pump.dormant_wakes")
        monitor, clock = self._monitor(registry, default_fleet_ruleset())
        clock.tick(monitor)
        wakes.inc(500)  # the storm lands inside one eval window
        clock.tick(monitor)
        assert monitor.level == "critical"
        assert [a["rule"] for a in monitor.alerts_since(0)] == ["mass_wake"]

    def test_state_document(self):
        registry = MetricsRegistry()
        monitor, clock = self._monitor(registry, default_fleet_ruleset())
        clock.tick(monitor)
        state = monitor.state()
        assert state["schema"] == HEALTH_SCHEMA
        assert state["level"] == "ok"
        assert set(state["rules"]) == {
            "echo_p95", "auth_burn", "replay_burn", "framing_burn",
            "tick_lag", "mass_wake", "active_ratio",
        }

    def test_duplicate_rule_names_rejected(self):
        registry = MetricsRegistry()
        rule = HealthRule.gauge_value("dup", "x", warn=1.0, crit=2.0)
        other = HealthRule.gauge_value("dup", "y", warn=1.0, crit=2.0)
        with pytest.raises(ObservabilityError):
            HealthMonitor(registry, [rule, other])

    def test_attach_evaluates_on_sim_timer(self):
        loop = EventLoop()
        reactor = SimReactor(loop)
        monitor = HealthMonitor(reactor.registry, default_fleet_ruleset())
        monitor.attach(reactor, interval_ms=500.0)
        loop.run_for(2600.0)
        assert monitor.evaluations == 5
        monitor.detach()
        loop.run_for(2000.0)
        assert monitor.evaluations == 5


# ----------------------------------------------------------------------
# Metrics writer: atomic snapshot rewrites on a reactor timer
# ----------------------------------------------------------------------


class TestMetricsWriter:
    def test_rewrites_atomically_on_interval(self, tmp_path):
        loop = EventLoop()
        reactor = SimReactor(loop)
        counter = reactor.registry.counter("bench.ticks")
        path = tmp_path / "metrics.json"
        writer = attach_metrics_writer(
            reactor, reactor.registry, str(path), interval_ms=1000.0
        )
        with open(path, encoding="utf-8") as fh:  # immediate first write
            first = json.load(fh)
        validate_snapshot(first)
        assert first["counters"]["bench.ticks"] == 0
        counter.inc(3)
        loop.run_for(1500.0)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["counters"]["bench.ticks"] == 3
        counter.inc(4)
        writer.close()  # cancels the timer and writes a final snapshot
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["counters"]["bench.ticks"] == 7
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp" in p]
        assert leftovers == []

    def test_rejects_bad_interval(self, tmp_path):
        loop = EventLoop()
        reactor = SimReactor(loop)
        with pytest.raises(ObservabilityError):
            attach_metrics_writer(
                reactor, reactor.registry, str(tmp_path / "m.json"), 0.0
            )

    @pytest.mark.parametrize("interval_ms", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_interval(
        self, tmp_path, interval_ms
    ):
        reactor = SimReactor()
        with pytest.raises(ObservabilityError):
            attach_metrics_writer(
                reactor, reactor.registry, str(tmp_path / "m.json"),
                interval_ms,
            )
        assert not (tmp_path / "m.json").exists()


# ----------------------------------------------------------------------
# Live control socket: scrape, health, watch, garbage
# ----------------------------------------------------------------------


def _drive(reactor, thread, seconds=10.0):
    deadline = time.monotonic() + seconds
    while thread.is_alive() and time.monotonic() < deadline:
        reactor.run_once(20.0)
    thread.join(1.0)
    assert not thread.is_alive()


class TestTelemetryServerLive:
    def test_scrape_health_watch_over_tcp(self):
        reactor = RealReactor()
        registry = reactor.registry
        counter = registry.counter("live.datagrams")
        monitor = HealthMonitor(registry, default_fleet_ruleset())
        server = TelemetryServer(
            reactor, registry, bind="127.0.0.1:0", health=monitor,
            feed_interval_ms=50.0,
        )
        results: dict[str, object] = {}

        def worker():
            try:
                results["scrape"] = telemetry.scrape(server.address)
                results["prom"] = telemetry.scrape(server.address, mode="prom")
                results["health"] = telemetry.health(server.address)
                docs = []
                for doc in telemetry.watch(server.address, timeout=8.0):
                    docs.append(doc)
                    if len(docs) >= 3:
                        break
                results["watch"] = docs
            except Exception as exc:  # pragma: no cover - assertion below
                results["error"] = repr(exc)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while thread.is_alive() and time.monotonic() < deadline:
            counter.inc()  # keep the feed busy so watch lines flow
            reactor.run_once(20.0)
        thread.join(1.0)
        try:
            assert not thread.is_alive()
            assert "error" not in results, results["error"]
            validate_snapshot(results["scrape"])
            assert "# TYPE repro_live_datagrams counter" in results["prom"]
            assert results["health"]["schema"] == HEALTH_SCHEMA
            docs = results["watch"]
            view = apply_delta(None, docs[0])  # first line: full snapshot
            for doc in docs[1:]:
                assert doc["schema"] == DELTA_SCHEMA
                assert "live.datagrams" in doc["counters"]
                view = apply_delta(view, doc)
            validate_snapshot(view)
            assert registry.get("telemetry.scrapes").value == 2
        finally:
            server.close()

    def test_unknown_command_and_unix_socket(self, tmp_path):
        if not hasattr(socket, "AF_UNIX"):
            pytest.skip("AF_UNIX not available")
        reactor = RealReactor()
        path = str(tmp_path / "control.sock")
        server = TelemetryServer(reactor, reactor.registry, bind=path)
        assert server.address == path
        results: dict[str, object] = {}

        def worker():
            try:
                results["scrape"] = telemetry.scrape(path)
                raw = telemetry.request(path, "frobnicate")
                results["unknown"] = json.loads(raw)
            except Exception as exc:  # pragma: no cover
                results["error"] = repr(exc)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        _drive(reactor, thread)
        try:
            assert "error" not in results, results.get("error")
            validate_snapshot(results["scrape"])
            assert "error" in results["unknown"]
        finally:
            server.close()
        assert not os.path.exists(path)  # close() reclaims the socket file

    def test_rejects_malformed_bind(self):
        reactor = RealReactor()
        with pytest.raises(ObservabilityError):
            TelemetryServer(reactor, reactor.registry, bind="localhost")

    def test_watch_reconnect_gets_fresh_full_snapshot(self):
        """Subscriber churn: a rejoining watcher primes from scratch.

        Each ``watch`` connection owns its own :class:`SnapshotDelta`,
        so a client that drops mid-feed and reconnects must receive a
        complete ``repro.obs/1`` snapshot first — one that already
        carries everything counted while it was away — not a delta
        against state it never saw.
        """
        reactor = RealReactor()
        registry = reactor.registry
        counter = registry.counter("live.datagrams")
        server = TelemetryServer(
            reactor, registry, bind="127.0.0.1:0", feed_interval_ms=30.0
        )
        results: dict[str, object] = {}

        def worker():
            try:
                for attempt in ("first", "second"):
                    docs = []
                    for doc in telemetry.watch(server.address, timeout=8.0):
                        docs.append(doc)
                        if len(docs) >= 2:
                            break  # generator close = abrupt disconnect
                    results[attempt] = docs
            except Exception as exc:  # pragma: no cover - assertion below
                results["error"] = repr(exc)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while thread.is_alive() and time.monotonic() < deadline:
            counter.inc()  # keep the feed shipping delta lines
            reactor.run_once(20.0)
        thread.join(1.0)
        try:
            assert not thread.is_alive()
            assert "error" not in results, results["error"]
            first, second = results["first"], results["second"]
            # Both subscriptions open with a full, valid snapshot and
            # follow with deltas; the reconnect's snapshot already
            # includes counts from the first subscriber's lifetime.
            for docs in (first, second):
                validate_snapshot(docs[0])
                assert docs[1]["schema"] == DELTA_SCHEMA
            assert (
                second[0]["counters"]["live.datagrams"]
                > first[0]["counters"]["live.datagrams"]
            )
            # Clean disconnects are churn, not slow-reader drops. Give
            # the loop a few ticks to observe the final hangup.
            deadline = time.monotonic() + 5.0
            while server._subscribers() and time.monotonic() < deadline:
                reactor.run_once(20.0)
            assert registry.get("telemetry.dropped_subscribers").value == 0
            assert not server._subscribers()
        finally:
            server.close()

    def test_slow_subscriber_dropped_at_buffer_cap(self):
        """A wedged reader is cut loose; the select loop keeps serving.

        When a subscriber's unsent backlog passes ``MAX_CLIENT_BUFFER`` the
        server must drop it and count it in
        ``telemetry.dropped_subscribers`` rather than queue without
        bound — and other clients must still get answers afterwards.
        """
        reactor = RealReactor()
        registry = reactor.registry
        counter = registry.counter("live.datagrams")
        server = TelemetryServer(
            reactor, registry, bind="127.0.0.1:0", feed_interval_ms=20.0
        )
        host, _, port = server.address.rpartition(":")
        stuck = socket.create_connection((host, int(port)))
        try:
            stuck.sendall(b"watch\n")
            deadline = time.monotonic() + 10.0
            while not server._subscribers() and time.monotonic() < deadline:
                reactor.run_once(20.0)
            (client,) = server._subscribers()
            # The reader has wedged: simulate the backlog its stalled
            # socket would accumulate and let the next flush judge it.
            counter.inc()
            client.outbuf += b"x" * (telemetry.MAX_CLIENT_BUFFER + 1)
            server._flush_client(client.fd)
            assert registry.get("telemetry.dropped_subscribers").value == 1
            assert not server._subscribers()

            # The loop is not wedged: a fresh client still scrapes.
            results: dict[str, object] = {}

            def worker():
                try:
                    results["scrape"] = telemetry.scrape(server.address)
                except Exception as exc:  # pragma: no cover
                    results["error"] = repr(exc)

            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            _drive(reactor, thread)
            assert "error" not in results, results.get("error")
            validate_snapshot(results["scrape"])
        finally:
            stuck.close()
            server.close()


# ----------------------------------------------------------------------
# Pump park/wake counters feeding the storm-detection rule
# ----------------------------------------------------------------------


class TestParkWakeCounters:
    def test_dormant_wake_distinguished_from_flash_park(self):
        from repro.prediction.engine import DisplayPreference
        from repro.session.inprocess import InProcessSession
        from repro.simnet.link import LinkConfig

        session = InProcessSession(
            LinkConfig(delay_ms=10.0),
            LinkConfig(delay_ms=10.0),
            seed=1,
            preference=DisplayPreference.ALWAYS,
        )
        session.server.on_input = session.server.host_write
        session.connect(warmup_ms=1000.0)
        registry = session.reactor.registry
        session.client.type_bytes(b"x")
        session.run_for(2000.0)
        parks = registry.get("pump.parks").value
        assert parks > 0  # idle endpoints parked between keystrokes
        assert registry.get("pump.dormant_wakes").value == 0
        # Client goes silent past the dormancy threshold; the server
        # stops heartbeating into the void, then the returning keystroke
        # must register as a *dormant* wake — the storm signal.
        session.client.pump.suspend()
        session.run_for(15_000.0)
        session.client.type_bytes(b"y")
        session.run_for(1500.0)
        assert registry.get("pump.dormant_wakes").value >= 1
        assert registry.get("pump.wakes").value > 0
