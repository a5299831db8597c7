"""The observability layer wired through a live session.

These are the ISSUE's acceptance checks: a scripted session over a lossy
simulated link must emit (a) a Chrome-loadable trace, (b) a metrics
snapshot whose per-keystroke echo-latency histogram carries p50/p95/p99,
and (c) nonzero seal/unseal histogram counts — plus replay-window and
keystroke-tracker behaviour at the unit level.
"""

import json

import pytest

from repro.crypto.keys import DIRECTION_TO_CLIENT, DIRECTION_TO_SERVER, Base64Key, Nonce
from repro.crypto.session import Message, NullSession, Session
from repro.errors import ReplayError
from repro.obs.keystroke import KeystrokeLatencyTracker
from repro.obs.registry import MetricsRegistry, validate_snapshot
from repro.obs.telemetry import write_snapshot_atomic
from repro.session.inprocess import InProcessSession
from repro.simnet.link import LinkConfig


def lossy_session(loss: float = 0.1, seed: int = 7) -> InProcessSession:
    session = InProcessSession(
        LinkConfig(delay_ms=40.0, loss=loss),
        LinkConfig(delay_ms=40.0, loss=loss),
        seed=seed,
    )
    session.server.on_input = lambda d: session.server.host_write(d)
    session.connect()
    return session


def type_script(session: InProcessSession, script: bytes) -> None:
    for ch in script:
        session.client.type_bytes(bytes([ch]))
        session.run_for(160.0)
    session.run_for(3000.0)  # retransmissions settle every keystroke


class TestLiveSessionAcceptance:
    def test_lossy_session_emits_trace_and_metrics(self, tmp_path):
        session = lossy_session()
        type_script(session, b"echo observability\n")
        doc = session.metrics_snapshot()
        write_snapshot_atomic(doc, str(tmp_path / "metrics.json"))
        count = session.reactor.tracer.export_chrome(str(tmp_path / "trace.json"))

        # (a) Chrome-loadable trace with the keystroke lifecycle.
        chrome = json.loads((tmp_path / "trace.json").read_text())
        assert len(chrome["traceEvents"]) == count > 0
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"client.keystroke", "server.input", "client.echo"} <= names
        assert {"client.tick", "server.tick"} <= names

        # (b) schema-valid snapshot with the echo-latency distribution.
        validate_snapshot(json.loads((tmp_path / "metrics.json").read_text()))
        ks = doc["histograms"]["keystroke.echo_ms"]
        assert ks["count"] == 19  # every keystroke settled despite loss
        assert 0 < ks["p50"] <= ks["p95"] <= ks["p99"]

        # (c) both endpoints' sealing histograms saw real datagrams.
        for name in (
            "client.crypto.seal_us", "client.crypto.unseal_us",
            "server.crypto.seal_us", "server.crypto.unseal_us",
        ):
            assert doc["histograms"][name]["count"] > 0, name

    def test_keystroke_latency_reflects_link_rtt(self):
        session = lossy_session(loss=0.0, seed=1)
        type_script(session, b"hi")
        hist = session.client.keystrokes.histogram
        # Echo needs at least one RTT (80 ms) and the 50 ms echo-ack
        # collection window; with pacing it lands in the low hundreds.
        assert hist.count == 2
        assert hist.min >= 80.0
        assert hist.p50 < 1000.0

    def test_role_prefixed_instruments_registered(self):
        session = lossy_session(loss=0.0, seed=2)
        type_script(session, b"x")
        names = set(session.reactor.registry.names())
        assert {
            "server.crypto.seal_us", "client.crypto.seal_us",
            "server.sender.frame_interval_ms", "client.sender.instructions",
            "client.network.srtt_ms", "server.network.rto_ms",
            "simnet.uplink.queue_bytes", "simnet.downlink.packets_delivered",
            "client.prediction.keystrokes",
        } <= names
        doc = session.metrics_snapshot()
        assert doc["gauges"]["client.network.srtt_ms"] > 0
        assert doc["counters"]["client.prediction.keystrokes"] == 1
        assert doc["histograms"]["server.sender.frame_interval_ms"]["count"] > 0

    def test_pumps_share_one_tick_counter(self):
        """Both pumps write the registry's single ``reactor.ticks``; the
        sender counters read each sender's own tallies through."""
        session = lossy_session(loss=0.0, seed=3)
        registry = session.reactor.registry
        ticks = registry.counter("reactor.ticks")
        session.run_for(1000.0)
        before = ticks.value
        assert before > 0
        session.client.kick()
        session.server.kick()
        assert ticks.value == before + 2
        sender = session.server.transport.sender
        counters = session.metrics_snapshot()["counters"]
        assert counters["server.sender.instructions"] == sender.instructions_sent


class TestKeystrokeTracker:
    def test_stamp_and_settle(self):
        tracker = KeystrokeLatencyTracker(MetricsRegistry())
        tracker.stamp(1, now=100.0)
        tracker.stamp(2, now=110.0)
        assert tracker.outstanding == 2
        settled = tracker.on_echo_ack(1, now=250.0)
        assert settled == [(1, 150.0)]
        assert tracker.outstanding == 1
        assert tracker.on_echo_ack(5, now=300.0) == [(2, 190.0)]
        assert tracker.typed.value == 2
        assert tracker.settled.value == 2
        assert tracker.histogram.count == 2

    def test_echo_ack_zero_settles_nothing(self):
        tracker = KeystrokeLatencyTracker(MetricsRegistry())
        tracker.stamp(1, now=0.0)
        assert tracker.on_echo_ack(0, now=50.0) == []
        assert tracker.outstanding == 1

    def test_pending_window_bounded(self):
        from repro.obs.keystroke import PENDING_MAX

        tracker = KeystrokeLatencyTracker(MetricsRegistry())
        for i in range(PENDING_MAX + 100):
            tracker.stamp(i + 1, now=float(i))
        assert tracker.outstanding == PENDING_MAX


class TestReplayWindow:
    def seal(self, session, seq, direction=DIRECTION_TO_SERVER):
        return session.encrypt(Message(Nonce(direction, seq), b"payload"))

    def test_exact_duplicate_dropped_and_counted(self):
        key = Base64Key.new()
        sender, receiver = Session(key), Session(key)
        wire = self.seal(sender, 1)
        receiver.decrypt(wire)
        with pytest.raises(ReplayError):
            receiver.decrypt(wire)
        assert receiver.stats.replay_drops == 1
        assert receiver.stats.datagrams_unsealed == 1
        # Replays are not authentication failures: the tag verified.
        assert receiver.stats.auth_failures == 0

    def test_out_of_order_within_window_accepted(self):
        key = Base64Key.new()
        sender, receiver = Session(key), Session(key)
        wires = {seq: self.seal(sender, seq) for seq in (3, 1, 2)}
        receiver.decrypt(wires[3])
        receiver.decrypt(wires[1])
        receiver.decrypt(wires[2])
        assert receiver.stats.datagrams_unsealed == 3
        with pytest.raises(ReplayError):
            receiver.decrypt(wires[2])

    def test_too_old_sequence_dropped(self):
        from repro.crypto.session import REPLAY_WINDOW

        key = Base64Key.new()
        sender, receiver = Session(key), Session(key)
        receiver.decrypt(self.seal(sender, REPLAY_WINDOW + 10))
        with pytest.raises(ReplayError):
            receiver.decrypt(self.seal(sender, 10))
        assert receiver.stats.replay_drops == 1

    def test_directions_have_independent_windows(self):
        key = Base64Key.new()
        sender, receiver = Session(key), Session(key)
        receiver.decrypt(self.seal(sender, 7, DIRECTION_TO_SERVER))
        # The same sequence number in the other direction is fine.
        receiver.decrypt(self.seal(sender, 7, DIRECTION_TO_CLIENT))
        assert receiver.stats.replay_drops == 0

    def test_null_session_window_matches(self):
        null = NullSession()
        wire = null.encrypt(Message(Nonce(DIRECTION_TO_SERVER, 1), b"x"))
        null2 = NullSession()
        null2.decrypt(wire)
        with pytest.raises(ReplayError):
            null2.decrypt(wire)
        assert null2.stats.replay_drops == 1

    def test_replay_drop_bridged_into_reactor_metrics(self):
        session = lossy_session(loss=0.0, seed=5)
        receiver = session.server_endpoint.session
        wire = session.client_endpoint.session.encrypt(
            Message(Nonce(DIRECTION_TO_SERVER, 10_000_000), b"dup")
        )
        receiver.decrypt(wire)
        with pytest.raises(ReplayError):
            receiver.decrypt(wire)
        doc = session.metrics_snapshot()
        assert doc["counters"]["crypto.replay_drops"] == 1


class TestTamperInjection:
    def test_flipped_byte_counts_auth_failure_in_snapshot(self):
        session = lossy_session(loss=0.0, seed=6)
        receiver = session.server_endpoint.session
        wire = bytearray(
            session.client_endpoint.session.encrypt(
                Message(Nonce(DIRECTION_TO_SERVER, 20_000_000), b"secret")
            )
        )
        wire[-1] ^= 0x01  # corrupt the tag
        from repro.errors import AuthenticationError

        with pytest.raises(AuthenticationError):
            receiver.decrypt(bytes(wire))
        assert session.metrics_snapshot()["counters"]["crypto.auth_failures"] == 1
