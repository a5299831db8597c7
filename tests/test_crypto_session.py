"""Keys, nonces, and the session sealing API."""

import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import (
    DIRECTION_TO_CLIENT,
    DIRECTION_TO_SERVER,
    OCB_NONCE_PREFIX,
    Base64Key,
    Nonce,
)
import repro.crypto.session as session_module
from repro.crypto.ocb import OCBCipher
from repro.crypto.session import (
    MAX_PAYLOAD_LEN,
    CryptoStats,
    Message,
    NullSession,
    Session,
    SessionCipher,
)
from repro.errors import AuthenticationError, CryptoError, ReplayError


class TestBase64Key:
    def test_printable_is_22_chars(self):
        key = Base64Key.new()
        assert len(key.printable()) == 22

    def test_printable_roundtrip(self):
        key = Base64Key.new()
        assert Base64Key.from_printable(key.printable()) == key

    def test_new_keys_are_distinct(self):
        assert Base64Key.new() != Base64Key.new()

    def test_wrong_length_raises(self):
        with pytest.raises(CryptoError):
            Base64Key(b"short")
        with pytest.raises(CryptoError):
            Base64Key.from_printable("tooshort")

    def test_invalid_base64_raises(self):
        with pytest.raises(CryptoError):
            Base64Key.from_printable("!" * 22)

    def test_repr_hides_secret(self):
        key = Base64Key.new()
        assert key.printable() not in repr(key)


class TestNonce:
    def test_wire_roundtrip(self):
        nonce = Nonce(direction=DIRECTION_TO_CLIENT, seq=123456)
        again = Nonce.from_wire(nonce.wire())
        assert again == nonce

    def test_direction_bit_is_top_bit(self):
        assert Nonce(DIRECTION_TO_CLIENT, 0).wire()[0] & 0x80
        assert not Nonce(DIRECTION_TO_SERVER, 0).wire()[0] & 0x80

    def test_ocb_form_is_12_bytes_zero_padded(self):
        nonce = Nonce(DIRECTION_TO_SERVER, 7)
        ocb = nonce.ocb()
        assert len(ocb) == 12
        assert ocb[:4] == bytes(4)

    def test_seq_out_of_range(self):
        with pytest.raises(CryptoError):
            Nonce(0, 1 << 63)
        with pytest.raises(CryptoError):
            Nonce(0, -1)

    def test_bad_direction(self):
        with pytest.raises(CryptoError):
            Nonce(2, 0)

    @given(st.integers(0, (1 << 63) - 1), st.integers(0, 1))
    def test_wire_roundtrip_property(self, seq, direction):
        nonce = Nonce(direction, seq)
        assert Nonce.from_wire(nonce.wire()) == nonce

    @given(st.binary(max_size=16))
    def test_from_wire_property(self, data):
        if len(data) != 8:
            with pytest.raises(CryptoError):
                Nonce.from_wire(data)
        else:
            nonce = Nonce.from_wire(data)
            assert Nonce(nonce.direction, nonce.seq) == nonce
            assert nonce.wire() == data

    @given(st.integers(-2, 3), st.integers(-(1 << 64), 1 << 64))
    def test_constructor_checks_property(self, direction, seq):
        if direction in (0, 1) and 0 <= seq < 1 << 63:
            assert tuple(Nonce(direction, seq)) == (direction, seq)
        else:
            with pytest.raises(CryptoError):
                Nonce(direction, seq)

    def test_is_immutable(self):
        nonce = Nonce(DIRECTION_TO_SERVER, 1)
        with pytest.raises(AttributeError):
            nonce.seq = 2


class TestSession:
    def test_roundtrip(self):
        session = Session(Base64Key.new())
        message = Message(Nonce(DIRECTION_TO_SERVER, 9), b"keystroke")
        assert session.decrypt(session.encrypt(message)) == message

    def test_nonce_travels_in_clear(self):
        session = Session(Base64Key.new())
        message = Message(Nonce(DIRECTION_TO_CLIENT, 77), b"data")
        wire = session.encrypt(message)
        assert Nonce.from_wire(wire[:8]) == message.nonce

    def test_tampering_detected(self):
        session = Session(Base64Key.new())
        wire = bytearray(session.encrypt(Message(Nonce(0, 1), b"hello")))
        wire[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            session.decrypt(bytes(wire))

    def test_nonce_tampering_detected(self):
        """Changing the cleartext nonce must break authentication."""
        session = Session(Base64Key.new())
        wire = bytearray(session.encrypt(Message(Nonce(0, 1), b"hello")))
        wire[7] ^= 0x01  # seq 1 -> 0
        with pytest.raises(AuthenticationError):
            session.decrypt(bytes(wire))

    def test_cross_key_rejected(self):
        a = Session(Base64Key.new())
        b = Session(Base64Key.new())
        wire = a.encrypt(Message(Nonce(0, 1), b"hello"))
        with pytest.raises(AuthenticationError):
            b.decrypt(wire)

    def test_short_datagram_rejected(self):
        session = Session(Base64Key.new())
        with pytest.raises(CryptoError):
            session.decrypt(b"tiny")

    def test_oversized_payload_rejected(self):
        session = Session(Base64Key.new())
        big = b"x" * (MAX_PAYLOAD_LEN + 1)
        with pytest.raises(CryptoError):
            session.encrypt(Message(Nonce(0, 1), big))

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=600), st.integers(0, 2**40))
    def test_roundtrip_property(self, payload, seq):
        session = Session(Base64Key(bytes(range(16))))
        message = Message(Nonce(DIRECTION_TO_SERVER, seq), payload)
        assert session.decrypt(session.encrypt(message)) == message


class TestNonceEncodingCache:
    """The tuple-backed nonce caches nothing: its encodings are values."""

    def test_wire_is_big_endian_direction_and_seq(self):
        assert Nonce(DIRECTION_TO_SERVER, 42).wire() == (42).to_bytes(8, "big")
        assert Nonce(DIRECTION_TO_CLIENT, 42).wire() == (
            (1 << 63) | 42
        ).to_bytes(8, "big")

    def test_ocb_is_prefix_plus_wire(self):
        nonce = Nonce(DIRECTION_TO_CLIENT, 42)
        assert nonce.ocb() == OCB_NONCE_PREFIX + nonce.wire()

    def test_from_wire_preserves_bytes(self):
        wire = Nonce(DIRECTION_TO_CLIENT, 9001).wire()
        assert Nonce.from_wire(wire).wire() == wire

    def test_cache_does_not_leak_into_equality(self):
        a = Nonce(DIRECTION_TO_SERVER, 3)
        b = Nonce(DIRECTION_TO_SERVER, 3)
        a.wire(), a.ocb()  # populate a's cache only
        assert a == b
        assert hash(a) == hash(b)


class TestCryptoStats:
    def test_seal_counters(self):
        session = Session(Base64Key.new())
        session.encrypt(Message(Nonce(0, 1), b"abcde"))
        session.encrypt(Message(Nonce(0, 2), b""))
        assert session.stats.datagrams_sealed == 2
        assert session.stats.bytes_sealed == 5

    def test_unseal_counters(self):
        session = Session(Base64Key.new())
        wire = session.encrypt(Message(Nonce(1, 7), b"0123456789"))
        session.decrypt(wire)
        assert session.stats.datagrams_unsealed == 1
        assert session.stats.bytes_unsealed == 10

    def test_auth_failure_counted_and_raised(self):
        session = Session(Base64Key.new())
        wire = bytearray(session.encrypt(Message(Nonce(0, 1), b"hello")))
        wire[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            session.decrypt(bytes(wire))
        assert session.stats.auth_failures == 1
        assert session.stats.datagrams_unsealed == 0

    def test_short_datagram_is_not_an_auth_failure(self):
        session = Session(Base64Key.new())
        with pytest.raises(CryptoError):
            session.decrypt(b"tiny")
        assert session.stats.auth_failures == 0

    def test_null_session_counts_too(self):
        session = NullSession()
        wire = session.encrypt(Message(Nonce(0, 1), b"abc"))
        session.decrypt(wire)
        assert session.stats.datagrams_sealed == 1
        assert session.stats.bytes_unsealed == 3
        assert session.stats.auth_failures == 0

    def test_bound_stats_count_into_registry_totals(self):
        """Once bound, every count also lands in the ``crypto.*`` total
        of the same name, and the histograms carry the prefix."""
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        sender = Session(Base64Key.new())
        receiver = Session(sender.key)
        for session in (sender, receiver):
            session.stats.bind_registry(registry, "server")
        wire = sender.encrypt(Message(Nonce(0, 1), b"abcd"))
        receiver.decrypt(wire)
        with pytest.raises(ReplayError):
            receiver.decrypt(wire)
        with pytest.raises(AuthenticationError):
            receiver.decrypt(wire[:-1] + bytes([wire[-1] ^ 1]))
        counters = registry.snapshot()["counters"]
        for name in ("datagrams_sealed", "bytes_sealed", "datagrams_unsealed",
                     "bytes_unsealed", "auth_failures", "replay_drops"):
            expected = getattr(sender.stats, name) + getattr(receiver.stats, name)
            assert counters[f"crypto.{name}"] == expected > 0
        assert registry.get("server.crypto.seal_us").count == 1

    def test_counters_reach_reactor_metrics(self):
        """End to end: sealing traffic shows up in the shared registry."""
        from repro.session.inprocess import InProcessSession
        from repro.simnet.link import LinkConfig

        session = InProcessSession(LinkConfig(), LinkConfig())
        session.connect()
        counters = session.metrics_snapshot()["counters"]
        assert counters["crypto.datagrams_sealed"] > 0
        assert counters["crypto.datagrams_unsealed"] > 0
        assert counters["crypto.auth_failures"] == 0
        sealed = sum(
            endpoint.session.stats.datagrams_sealed
            for endpoint in (session.client_endpoint, session.server_endpoint)
        )
        assert counters["crypto.datagrams_sealed"] == sealed


class TestNullSession:
    def test_roundtrip(self):
        session = NullSession()
        message = Message(Nonce(1, 5), b"plaintext")
        assert session.decrypt(session.encrypt(message)) == message

    def test_wire_size_matches_encrypted_case(self):
        """Simulations must see realistic datagram sizes."""
        payload = b"z" * 100
        null_wire = NullSession().encrypt(Message(Nonce(0, 3), payload))
        real_wire = Session(Base64Key.new()).encrypt(
            Message(Nonce(0, 3), payload)
        )
        assert len(null_wire) == len(real_wire)

    def test_wire_is_header_payload_and_zero_tag(self):
        wire = NullSession().encrypt(Message(Nonce(1, 9), b"clear"))
        assert wire == Nonce(1, 9).wire() + b"clear" + bytes(16)

    def test_is_a_session_with_the_same_checks(self):
        """The length bound, the too-short check and the replay window are
        :class:`Session`'s own: NullSession only swaps the cipher."""
        assert issubclass(NullSession, Session)
        assert "encrypt" not in vars(NullSession)
        assert "decrypt" not in vars(NullSession)
        session = NullSession()
        with pytest.raises(CryptoError, match="bound"):
            session.encrypt(Message(Nonce(0, 1), bytes(MAX_PAYLOAD_LEN + 1)))
        with pytest.raises(CryptoError, match="too short"):
            session.decrypt(bytes(23))
        wire = session.encrypt(Message(Nonce(0, 1), b"x"))
        assert session.decrypt(memoryview(wire)).text == b"x"
        with pytest.raises(ReplayError):
            session.decrypt(wire)
        assert session.stats.replay_drops == 1
        assert session.stats.auth_failures == 0


class TestReplayWindowJumps:
    def test_huge_sequence_jump_is_cheap_and_window_still_works(self):
        """An authentic datagram that jumps the sequence number by 2**62
        must not allocate in proportion to the jump, and afterwards the
        window must still drop a true replay and admit fresh numbers."""
        sender = Session(Base64Key.new())
        receiver = Session(sender.key)

        def seal(seq):
            return sender.encrypt(Message(Nonce(DIRECTION_TO_SERVER, seq), b"k"))

        receiver.decrypt(seal(1))
        jumped = seal(1 + 2**62)
        assert receiver.decrypt(jumped).nonce.seq == 1 + 2**62
        with pytest.raises(ReplayError):
            receiver.decrypt(jumped)
        with pytest.raises(ReplayError):
            receiver.decrypt(seal(1))  # far behind the window now
        assert receiver.decrypt(seal(2**62)).nonce.seq == 2**62
        assert receiver.stats.replay_drops == 2
        assert receiver._replay[DIRECTION_TO_SERVER].mask == 0b11


class TestLatencyGrid:
    def test_sub_microsecond_seal_lands_in_a_real_bucket(self):
        """An OpenSSL seal takes about a microsecond; the grid must
        resolve it rather than fold it into the underflow bucket."""
        hist = CryptoStats().seal_us
        hist.record(0.5)
        assert 0 not in hist._counts  # bucket 0 is the underflow bucket
        assert hist.p50 == pytest.approx(0.5, rel=0.02)


def _session_with(cipher_cls, key):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "SessionCipher", cipher_cls)
        return Session(key)


class TestBackends:
    def test_backend_follows_the_import(self):
        try:
            from cryptography.hazmat.primitives.ciphers.aead import AESOCB3
        except ImportError:
            assert SessionCipher is OCBCipher
        else:
            assert SessionCipher is AESOCB3

    @pytest.mark.skipif(
        SessionCipher is OCBCipher, reason="cryptography not installed"
    )
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        payload=st.binary(max_size=1500),
        direction=st.integers(0, 1),
        seq=st.integers(0, (1 << 63) - 1),
        data=st.data(),
    )
    def test_openssl_and_reference_are_byte_identical(
        self, key, payload, direction, seq, data
    ):
        reference = _session_with(OCBCipher, Base64Key(key))
        openssl = Session(Base64Key(key))
        message = Message(Nonce(direction, seq), payload)
        wire = openssl.encrypt(message)
        assert reference.encrypt(message) == wire
        bit = data.draw(st.integers(0, 8 * len(wire) - 1), label="bit")
        forged = bytearray(wire)
        forged[bit // 8] ^= 1 << (bit % 8)
        for session in (reference, openssl):
            with pytest.raises(AuthenticationError):
                session.decrypt(bytes(forged))
            assert session.stats.auth_failures == 1
            assert session.decrypt(wire) == message

    def test_fallback_when_cryptography_cannot_import(self):
        """Every leg runs the import-time fallback: in a process where
        ``cryptography`` cannot import, sessions seal through the
        reference cipher, reject a forgery as a counted
        AuthenticationError, and put the same bytes on the wire as this
        process's backend."""
        code = textwrap.dedent(
            """
            import sys

            class BlockCryptography:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "cryptography":
                        raise ImportError(f"{name} is blocked")

            sys.meta_path.insert(0, BlockCryptography())

            from repro.crypto.keys import Base64Key, Nonce
            from repro.crypto.ocb import OCBCipher
            from repro.crypto.session import Message, Session, SessionCipher
            from repro.errors import AuthenticationError

            assert SessionCipher is OCBCipher, SessionCipher
            session = Session(Base64Key(bytes(range(16))))
            wire = session.encrypt(Message(Nonce(1, 42), b"fallback"))
            try:
                session.decrypt(wire[:-1] + bytes([wire[-1] ^ 1]))
            except AuthenticationError:
                pass
            else:
                raise SystemExit("forged datagram accepted")
            assert session.stats.auth_failures == 1
            assert session.decrypt(wire).text == b"fallback"
            print(wire.hex())
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        ours = Session(Base64Key(bytes(range(16)))).encrypt(
            Message(Nonce(1, 42), b"fallback")
        )
        assert out.stdout.strip() == ours.hex()

    def test_daemon_does_not_import_numpy(self):
        """The benchmark's peak-RSS figure assumes numpy stays out of the
        process: nothing the daemon needs may pull it in."""
        code = textwrap.dedent(
            """
            import sys
            import repro
            from repro.session.inprocess import InProcessDaemon
            from repro.simnet.link import LinkConfig
            InProcessDaemon(LinkConfig(), LinkConfig(), sessions=2)
            print("numpy" in sys.modules)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
