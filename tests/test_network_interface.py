"""Datagram endpoint bookkeeping (direction filter, seq, timestamps)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.keys import Base64Key, Nonce
from repro.crypto.session import Message, NullSession, Session
from repro.network.interface import DatagramEndpoint
from repro.network.packet import PACKET_HEADER, peek_conn_id, timestamp16
from repro.obs.flight import FlightRecorder


class RecordingEndpoint(DatagramEndpoint):
    def __init__(self, is_server=False, session=None):
        super().__init__(session or NullSession(), is_server=is_server)
        self.wire: list[bytes] = []
        self.set_remote_addr("peer")

    def _transmit(self, raw, now):
        self.wire.append(raw)


def unseal(endpoint, raw):
    """``(nonce, timestamp, timestamp_reply, payload)`` of a sent datagram."""
    message = NullSession().decrypt(raw)
    timestamp, reply = PACKET_HEADER.unpack_from(message.text)
    return message.nonce, timestamp, reply, message.text[PACKET_HEADER.size :]


def sealed(seq=0, direction=0, payload=b"p", ts=100, tsr=0xFFFF):
    """A plaintext-sealed datagram carrying ``payload``."""
    text = PACKET_HEADER.pack(ts, tsr) + payload
    return NullSession().encrypt(Message(Nonce(direction, seq), text))


class TestSending:
    def test_sequence_numbers_increment(self):
        ep = RecordingEndpoint()
        ep.send(b"a", now=0.0)
        ep.send(b"b", now=1.0)
        packets = [unseal(ep, raw) for raw in ep.wire]
        assert [nonce.seq for nonce, *_ in packets] == [0, 1]
        assert [payload for *_, payload in packets] == [b"a", b"b"]

    def test_direction_bit(self):
        client = RecordingEndpoint(is_server=False)
        server = RecordingEndpoint(is_server=True)
        client.send(b"x", now=0.0)
        server.send(b"x", now=0.0)
        assert unseal(client, client.wire[0])[0].direction == 0
        assert unseal(server, server.wire[0])[0].direction == 1

    def test_timestamp_attached(self):
        ep = RecordingEndpoint()
        ep.send(b"x", now=12345.0)
        assert unseal(ep, ep.wire[0])[1] == timestamp16(12345.0)


class TestReceiving:
    _datagram = staticmethod(sealed)

    def test_delivers_payload(self):
        server = RecordingEndpoint(is_server=True)
        server._handle_datagram(self._datagram(), "addr", now=0.0)
        assert server.pop_received() == [b"p"]

    def test_wrong_direction_rejected(self):
        """A reflected packet (our own direction bit) must be dropped."""
        server = RecordingEndpoint(is_server=True)
        server._handle_datagram(
            self._datagram(direction=1), "addr", now=0.0
        )
        assert server.pop_received() == []

    @given(st.binary(max_size=12))
    def test_body_property(self, body):
        """Any authentic body: a short one is a bad_packet drop, a longer
        one delivers what follows the 4-byte header."""
        server = RecordingEndpoint(is_server=True)
        server.flight = FlightRecorder("server")
        raw = NullSession().encrypt(Message(Nonce(0, 3), body))
        accepted = server.handle_unsealed(
            NullSession().decrypt(raw), raw, "addr", 0.0
        )
        assert accepted == (len(body) >= PACKET_HEADER.size)
        if accepted:
            assert server.pop_received() == [body[PACKET_HEADER.size :]]
        else:
            assert server.pop_received() == []
            drop = server.flight.events()[-1]
            assert (drop["ev"], drop["reason"]) == ("drop", "bad_packet")

    def test_garbage_dropped(self):
        server = RecordingEndpoint(is_server=True)
        server._handle_datagram(b"\x00" * 5, "addr", now=0.0)
        server._handle_datagram(b"", "addr", now=0.0)
        assert server.pop_received() == []

    def test_server_retargets_only_on_newer_seq(self):
        server = RecordingEndpoint(is_server=True)
        server._handle_datagram(self._datagram(seq=5), "addr-new", now=0.0)
        assert server.remote_addr == "addr-new"
        server._handle_datagram(self._datagram(seq=3), "addr-old", now=1.0)
        assert server.remote_addr == "addr-new"  # stale seq can't steal

    def test_old_packets_still_delivered(self):
        """Out-of-order datagrams carry idempotent diffs: deliver them."""
        server = RecordingEndpoint(is_server=True)
        server._handle_datagram(self._datagram(seq=5, payload=b"new"), "a", 0.0)
        server._handle_datagram(self._datagram(seq=3, payload=b"old"), "a", 1.0)
        assert server.pop_received() == [b"new", b"old"]

    def test_last_heard_updates(self):
        server = RecordingEndpoint(is_server=True)
        assert server.last_heard is None
        server._handle_datagram(self._datagram(), "a", now=77.0)
        assert server.last_heard == 77.0

    def test_on_datagram_hook(self):
        server = RecordingEndpoint(is_server=True)
        calls = []
        server.on_datagram = calls.append
        server._handle_datagram(self._datagram(), "a", now=5.0)
        assert calls == [5.0]


class TestRttSampling:
    def test_timestamp_reply_produces_sample(self):
        client = RecordingEndpoint(is_server=False)
        # Peer echoes our timestamp from 80 ms ago.
        raw = sealed(direction=1, payload=b"", ts=500,
                     tsr=timestamp16(1000.0 - 80.0))
        client._handle_datagram(raw, "a", now=1000.0)
        assert client.has_rtt_sample
        assert client.srtt == 80.0

    def test_no_reply_no_sample(self):
        client = RecordingEndpoint(is_server=False)
        raw = sealed(direction=1, payload=b"", ts=500, tsr=0xFFFF)
        client._handle_datagram(raw, "a", now=1000.0)
        assert not client.has_rtt_sample


class TestEncryptedEndToEnd:
    def test_cross_endpoint_exchange(self):
        key = Base64Key.new()

        class Pipe(DatagramEndpoint):
            def __init__(self, is_server, peer_box):
                super().__init__(Session(key), is_server=is_server)
                self.peer_box = peer_box
                self.set_remote_addr("peer")

            def _transmit(self, raw, now):
                self.peer_box.append(raw)

        to_server: list[bytes] = []
        to_client: list[bytes] = []
        client = Pipe(False, to_server)
        server = Pipe(True, to_client)
        client.send(b"keystroke", now=0.0)
        server._handle_datagram(to_server.pop(), "client", now=10.0)
        assert server.pop_received() == [b"keystroke"]
        server.send(b"frame", now=20.0)
        client._handle_datagram(to_client.pop(), "server", now=30.0)
        assert client.pop_received() == [b"frame"]
        # The reply carried a hold-adjusted timestamp: 30-0 minus 10 held.
        assert client.srtt == 20.0


class TestConnIdFraming:
    """The v2 mux header: varint conn id ahead of the nonce."""

    def test_framed_send_and_receive(self):
        client = RecordingEndpoint(is_server=False)
        server = RecordingEndpoint(is_server=True)
        client.set_conn_id(7)
        server.set_conn_id(7)
        client.send(b"keys", now=0.0)
        raw = client.wire[0]
        assert peek_conn_id(raw) == (7, 2)
        server._handle_datagram(raw, "addr", now=1.0)
        assert server.pop_received() == [b"keys"]
        assert server.framing_drops == 0

    def test_mismatched_conn_id_dropped(self):
        client = RecordingEndpoint(is_server=False)
        server = RecordingEndpoint(is_server=True)
        client.set_conn_id(7)
        server.set_conn_id(8)
        client.send(b"keys", now=0.0)
        server._handle_datagram(client.wire[0], "addr", now=1.0)
        assert server.pop_received() == []
        assert server.framing_drops == 1

    def test_unframed_datagram_is_framing_drop(self):
        """An endpoint with a conn id accepts only datagrams framed with
        it: an authentic unframed datagram is dropped before unsealing,
        and replies stay framed."""
        key = Base64Key.new()
        server = RecordingEndpoint(is_server=True, session=Session(key))
        server.set_conn_id(3)
        server.flight = FlightRecorder("server")
        client = RecordingEndpoint(is_server=False, session=Session(key))
        client.send(b"old-style", now=0.0)  # no conn id: unframed
        server._handle_datagram(client.wire[0], "addr", now=1.0)
        assert server.pop_received() == []
        assert server.framing_drops == 1
        assert server.session.stats.datagrams_unsealed == 0
        assert server.remote_addr == "peer"
        drops = [e for e in server.flight.events() if e["ev"] == "drop"]
        assert [(e["reason"], e["seq"]) for e in drops] == [("no_route", 0)]
        server.send(b"reply", now=2.0)
        assert peek_conn_id(server.wire[0]) == (3, 2)

    def test_framed_peer_keeps_framing(self):
        server = RecordingEndpoint(is_server=True)
        server.set_conn_id(3)
        client = RecordingEndpoint(is_server=False)
        client.set_conn_id(3)
        client.send(b"new-style", now=0.0)
        server._handle_datagram(client.wire[0], "addr", now=1.0)
        server.send(b"reply", now=2.0)
        assert peek_conn_id(server.wire[0]) == (3, 2)

    def test_unauthenticated_framing_cannot_flip_dialect(self):
        """No unframed datagram, forged or not, changes outbound framing."""
        server = RecordingEndpoint(is_server=True, session=Session(Base64Key.new()))
        server.set_conn_id(3)
        server.set_remote_addr("peer")
        server._handle_datagram(bytes(64), "addr", now=0.0)  # garbage, v1-shaped
        server.send(b"reply", now=1.0)
        assert peek_conn_id(server.wire[0]) == (3, 2)
