"""Per-keystroke causal tracing: residual-exact stages, live vs offline.

For a simulated session the live stage durations must sum to the
end-to-end ``keystroke.echo_ms`` measurement, must agree with the offline
flight-log stage partition on the same run, and must not depend on a
flight recorder being attached. Plus unit coverage for the degenerate
paths, the exemplar ring, the report validator, the server-side echo
wait read off the terminal's echo ack, and the clock domain every
recorder derives from its reactor.
"""

import hashlib
import io
import itertools
import json
import os
import sys

import pytest

from repro.analysis.flight import analyze
from repro.crypto import session as crypto_session
from repro.crypto.keys import Base64Key
from repro.errors import ObservabilityError
from repro.input.events import UserBytes
from repro.obs.causal import (
    CAUSAL_SCHEMA,
    EXEMPLAR_MAX,
    STAGES,
    CausalTracer,
    pool_server_echo_wait,
    pool_stage_summaries,
    render_waterfall,
    validate_causal_report,
)
from repro.obs.registry import set_enabled
from repro.obs.trace import SpanTracer
from repro.runtime.reactor import RealReactor, SimReactor
from repro.session.inprocess import InProcessDaemon, InProcessSession
from repro.simnet.link import LinkConfig
from repro.terminal.complete import ECHO_TIMEOUT_MS


def typing_session(
    up_ms: float = 20.0,
    down_ms: float = 35.0,
    keystrokes: int = 30,
    seed: int = 1,
    client_flight: bool = True,
) -> InProcessSession:
    """An asymmetric-path echo session with every keystroke settled.

    ``client_flight=False`` detaches the client's flight recorder before
    the first datagram, as a real client without ``--flight-log`` runs.
    """
    session = InProcessSession(
        LinkConfig(delay_ms=up_ms),
        LinkConfig(delay_ms=down_ms),
        seed=seed,
    )
    if not client_flight:
        session.client_endpoint.flight = None
    session.server.on_input = lambda d: session.server.host_write(d)
    session.connect(warmup_ms=500.0)
    for i in range(keystrokes):
        session.client.type_bytes(b"q" if i % 10 else b"\r")
        session.run_for(40.0)
    session.run_for(2000.0)  # every keystroke settles
    return session


class TestLiveAttribution:
    def test_stage_durations_sum_to_echo_latency(self):
        session = typing_session()
        tracer = session.client.causal
        echo = session.client.keystrokes.histogram
        assert echo.count == 30
        # Every settled keystroke was fully attributed via its chain.
        assert tracer.chains.value == 30
        assert tracer.unmatched.value == 0
        assert tracer.pending == 0
        counts = {s: tracer.stage_histograms[s].count for s in STAGES}
        assert set(counts.values()) == {30}
        # Residual-exact: the seven stage totals reproduce the tracker's
        # total to float noise — far inside the ±1-tick acceptance bound.
        stage_total = sum(tracer.stage_histograms[s].total for s in STAGES)
        assert stage_total == pytest.approx(echo.total, abs=1e-6)

    def test_wire_stages_match_link_delays(self):
        session = typing_session(up_ms=20.0, down_ms=35.0)
        tracer = session.client.causal
        # The simulated links are constant-delay, so the directional
        # wire stages must recover them (not just their 55 ms sum).
        assert tracer.stage_histograms["wire_c2s"].mean == pytest.approx(
            20.0, abs=1.0
        )
        assert tracer.stage_histograms["wire_s2c"].mean == pytest.approx(
            35.0, abs=1.0
        )
        # The server stage dominates: the 50 ms echo-ack hold lives there.
        assert tracer.stage_histograms["server_echo"].mean > 40.0

    def test_live_agrees_with_offline_flight_partition(self):
        session = typing_session()
        tracer = session.client.causal
        client_rec, server_rec = session.flight_recordings()
        offline = analyze(client_rec, server_rec)["stages"]
        assert offline["chains"] > 0
        # Wire stages: both sides see the same constant-delay links.
        for live_name, offline_name in (
            ("wire_c2s", "wire_c2s_ms"),
            ("wire_s2c", "wire_s2c_ms"),
        ):
            live_mean = tracer.stage_histograms[live_name].mean
            assert live_mean == pytest.approx(
                offline[offline_name]["mean"], abs=1.0
            ), live_name
        # Decomposition identity: the live lumped server stage equals the
        # offline apply time (settling diff sent) plus the echo-ack hold
        # the server tracks live — within the settle-diff pacing jitter.
        echo_wait = session.server.echo_wait
        assert echo_wait.count > 0
        live_server = tracer.stage_histograms["server_echo"].mean
        decomposed = offline["server_apply_ms"]["mean"] + echo_wait.mean
        assert live_server == pytest.approx(decomposed, abs=5.0)

    def test_report_validates_and_pools(self):
        session = typing_session(keystrokes=10)
        report = session.client.causal.report()
        assert report["schema"] == CAUSAL_SCHEMA
        validate_causal_report(report)  # includes per-exemplar sum check
        doc = session.metrics_snapshot()
        pooled = pool_stage_summaries(doc)
        assert set(pooled) == set(STAGES)
        assert all(pooled[s].count == 10 for s in STAGES)
        lines = render_waterfall(pooled)
        assert len(lines) == len(STAGES)
        assert all("#" in line for line in lines if "wire" in line)
        assert pool_server_echo_wait(doc).count > 0

    def test_attribution_needs_no_flight_recorder(self):
        with_flight = typing_session()
        without = typing_session(client_flight=False)
        assert without.client_endpoint.flight is None
        live, bare = with_flight.client.causal, without.client.causal
        assert bare.chains.value == live.chains.value == 30
        assert bare.unmatched.value == live.unmatched.value == 0
        for stage in STAGES:
            # Only the wall-clock seal/unseal carve differs between runs.
            assert bare.stage_histograms[stage].mean == pytest.approx(
                live.stage_histograms[stage].mean, abs=0.5
            ), stage
        assert bare.stage_histograms["wire_c2s"].mean == pytest.approx(
            20.0, abs=1.0
        )
        echo = without.client.keystrokes.histogram
        stage_total = sum(bare.stage_histograms[s].total for s in STAGES)
        assert stage_total == pytest.approx(echo.total, abs=1e-6)

    def test_server_only_registry_registers_no_chains(self):
        # A daemon whose clients live elsewhere: no client core, so no
        # causal chains, but the server-side echo wait always measures.
        daemon = InProcessDaemon(
            LinkConfig(delay_ms=20.0), LinkConfig(delay_ms=20.0), sessions=0
        )
        record = daemon.manager.spawn(key=Base64Key.new())
        names = set(daemon.reactor.registry.names())
        assert not any(n.startswith("causal.") for n in names)
        assert f"{record.core.role}.causal.echo_wait_ms" in names
        # Every client core carries its tracer, wired to its endpoint.
        session = typing_session(keystrokes=5)
        assert session.client.causal is session.client_endpoint.causal
        assert session.client.causal.chains.value == 5
        assert session.client.keystrokes.histogram.count == 5


class TestExemplars:
    def test_tail_ring_bounded_and_sorted(self):
        session = typing_session(keystrokes=EXEMPLAR_MAX + 14)
        tracer = session.client.causal
        assert tracer.exemplar_count == EXEMPLAR_MAX
        chains = tracer.exemplars()
        echoes = [c["echo_ms"] for c in chains]
        assert echoes == sorted(echoes, reverse=True)  # slowest first
        # The retained tail really is the slowest slice of the run.
        all_settled = session.client.keystrokes.histogram
        assert min(echoes) >= all_settled.min

    def test_exemplars_and_spans_are_pinned(self, monkeypatch):
        """Every retained chain and every exported waterfall span of a
        seeded session, hashed as canonical JSON. Every seal and unseal
        is timed at exactly 1 us, so the crypto stages are fixed too."""
        ticks = itertools.count()
        monkeypatch.setattr(
            crypto_session, "perf_counter", lambda: next(ticks) * 1e-6
        )
        session = typing_session(keystrokes=EXEMPLAR_MAX + 14)
        tracer = session.client.causal
        spans = SpanTracer(lambda: 0.0)
        assert tracer.export_spans(spans) == 80
        digest = hashlib.sha256()
        digest.update(json.dumps(tracer.exemplars()).encode())
        digest.update(json.dumps(spans.trace_events()).encode())
        assert digest.hexdigest() == (
            "2c68c8ade1b7abe20d13771833fba7b028b666be49820311553989edeceaa42a"
        )

    def test_export_spans_builds_waterfalls(self):
        session = typing_session(keystrokes=6)
        tracer = session.client.causal
        clock = [0.0]
        spans = SpanTracer(lambda: clock[0])
        count = tracer.export_spans(spans)
        assert count > 0
        events = spans.events(cat="causal")
        assert len(events) == count
        # Consecutive stages of one keystroke tile without gaps.
        chain = tracer.exemplars()[0]
        mine = sorted(
            (e for e in events if e["args"]["index"] == chain["index"]),
            key=lambda e: e["ts_ms"],
        )
        cursor = chain["t_typed"]
        for event in mine:
            assert event["ts_ms"] == pytest.approx(cursor, abs=1e-6)
            cursor += event["dur_ms"]
        assert cursor == pytest.approx(
            chain["t_typed"] + chain["echo_ms"], abs=0.05
        )


class TestDegeneratePaths:
    def test_unmatched_settle_charges_server_stage(self):
        tracer = CausalTracer(SimReactor())
        # A settle for a keystroke that was never stamped (tracer
        # attached mid-flight): boundaries still hold, interior lumps
        # into server_echo, and the fallback is counted.
        tracer.on_frame(1000.0, [(3, 120.0)])
        assert tracer.unmatched.value == 1
        assert tracer.chains.value == 0
        assert tracer.stage_histograms["server_echo"].total == 120.0
        total = sum(tracer.stage_histograms[s].total for s in STAGES)
        assert total == pytest.approx(120.0)

    def test_disabled_switch_noops_every_hook(self):
        tracer = CausalTracer(SimReactor())
        set_enabled(False)
        try:
            tracer.on_stamp(0, 1.0)
            tracer.on_send(2.0, 1, 10, 50.0)
            tracer.on_recv((3.0, 2, 3, 2, 1.0, 40.0, None))
            tracer.on_frame(4.0, [(0, 3.0)])
        finally:
            set_enabled(True)
        assert tracer.pending == 0
        assert tracer.chains.value == 0
        assert all(h.count == 0 for h in tracer.stage_histograms.values())

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(ObservabilityError):
            validate_causal_report([])
        with pytest.raises(ObservabilityError):
            validate_causal_report({"schema": "nope"})
        session = typing_session(keystrokes=5)
        report = session.client.causal.report()
        report["exemplars"][0]["stages"]["server_echo"] += 1.0
        with pytest.raises(ObservabilityError):
            validate_causal_report(report)


class TestServerEchoWait:
    def test_echo_wait_is_read_off_retired_inputs(self):
        session = InProcessSession(
            LinkConfig(delay_ms=20.0), LinkConfig(delay_ms=35.0), seed=1
        )
        server = session.server
        retire = server.terminal.set_echo_ack
        waits = []

        def recording_set_echo_ack(now):
            retired = retire(now)
            waits.extend(now - arrived for arrived in retired)
            return retired

        server.terminal.set_echo_ack = recording_set_echo_ack
        server.on_input = lambda d: server.host_write(d)
        session.connect(warmup_ms=500.0)
        session.client.resize(60, 20)  # a non-input event: no sample
        for i in range(12):
            session.client.type_bytes(b"w")
            session.run_for(20.0 if i % 3 else 90.0)
        session.run_for(2000.0)

        applied = [
            event
            for event in server.transport.remote_state.events_since(0)
            if isinstance(event, UserBytes)
        ]
        echo_wait = server.echo_wait
        assert len(applied) == 12
        assert echo_wait.count == len(waits) == len(applied)
        assert echo_wait.total == sum(waits)
        assert echo_wait.min == min(waits) >= ECHO_TIMEOUT_MS
        assert echo_wait.max == max(waits)


class TestClockDomain:
    def test_sim_recorders_report_sim(self):
        session = typing_session(keystrokes=1)
        assert session.reactor.clock_domain == "sim"
        for recorder in (session.client_flight, session.server_flight):
            assert recorder.header()["clock"] == "sim"
        daemon = InProcessDaemon(
            LinkConfig(delay_ms=20.0), LinkConfig(delay_ms=20.0), sessions=1
        )
        recorders = [daemon.daemon_flight]
        recorders += daemon.server_flights.values()
        recorders += daemon.client_flights.values()
        assert len(recorders) == 3
        assert {r.header()["clock"] for r in recorders} == {"sim"}

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="pty/UDP apps are Linux-only",
    )
    def test_real_app_recorders_report_real(self):
        from repro.app.client import ClientApp
        from repro.app.server import ServerApp
        from repro.daemon.app import DaemonApp

        server = ServerApp(argv=["/bin/sh"], bind_host="127.0.0.1", flight=True)
        daemon = DaemonApp(
            argv=["/bin/sh"], bind_host="127.0.0.1", sessions=1, flight=True
        )
        read_fd, write_fd = os.pipe()
        client = ClientApp(
            "127.0.0.1",
            server.connection.port,
            server.key,
            server.conn_id,
            stdin_fd=read_fd,
            stdout=io.BytesIO(),
            flight=True,
        )
        try:
            recorders = [server.flight, daemon.flight, client.flight]
            recorders += [r.endpoint.flight for r in daemon.manager.records()]
            assert len(recorders) == 4
            assert {r.header()["clock"] for r in recorders} == {"real"}
        finally:
            client.close()
            daemon.shutdown()
            server.shutdown()
            os.close(write_fd)
            os.close(read_fd)

    def test_tracer_pins_offset_only_on_a_sim_reactor(self):
        # ts - reply = 50 ms apparent c2s, t_recv - ts = 10 ms apparent
        # s2c: a 20 ms server-minus-client offset on two real clocks.
        rx = (160.0, 1, 150, 100, 55.0, 0.0, None)
        sim = CausalTracer(SimReactor())
        real = CausalTracer(RealReactor())
        for tracer in (sim, real):
            tracer.on_recv(rx)
        assert sim.offset_ms() == 0.0
        assert real.offset_ms() == pytest.approx(20.0)
        assert sim.report()["clock_offset_ms"] == 0.0
        assert real.report()["clock_offset_ms"] == pytest.approx(20.0)


class TestDaemonFleet:
    def test_labelled_stage_histograms_per_client(self):
        daemon = InProcessDaemon(
            LinkConfig(delay_ms=15.0),
            LinkConfig(delay_ms=15.0),
            sessions=2,
            width=40,
            height=8,
            seed=3,
        )
        daemon.connect(warmup_ms=1000.0)
        for cid in daemon.conn_ids:
            for _ in range(4):
                daemon.client(cid).type_bytes(b"k")
                daemon.run_for(60.0)
        daemon.run_for(2000.0)
        doc = daemon.metrics_snapshot()
        for cid in daemon.conn_ids:
            for stage in STAGES:
                name = f"causal.c{cid}.{stage}_ms"
                assert doc["histograms"][name]["count"] == 4, name
        pooled = pool_stage_summaries(doc)
        assert pooled["deliver"].count == 8  # both clients pooled
