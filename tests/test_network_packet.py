"""Packet header codec, mux framing and 16-bit timestamp arithmetic."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.keys import Nonce
from repro.crypto.session import Message, NullSession
from repro.errors import PacketError
from repro.network.packet import (
    CONN_WIRE_MAGIC,
    MAX_CONN_ID,
    PACKET_HEADER,
    TIMESTAMP_NONE,
    encode_conn_id,
    peek_conn_id,
    timestamp16,
    timestamp_diff,
)


class TestTimestamp16:
    def test_folds_to_16_bits(self):
        assert timestamp16(65536.0) == 0
        assert timestamp16(65537.9) == 1

    def test_diff_simple(self):
        assert timestamp_diff(100, 40) == 60

    def test_diff_wraps(self):
        assert timestamp_diff(5, 0xFFFE) == 7

    @given(st.integers(0, 0xFFFF), st.integers(0, 30000))
    def test_diff_recovers_elapsed(self, start, elapsed):
        later = (start + elapsed) & 0xFFFF
        assert timestamp_diff(later, start) == elapsed


class TestPacket:
    """The sealed packet header codec, :data:`PACKET_HEADER`.

    Endpoints pack and unpack it themselves; a body too short for it is
    an endpoint-level ``bad_packet`` drop (see test_network_interface).
    """

    def test_roundtrip(self):
        text = PACKET_HEADER.pack(1234, 987) + b"data"
        assert PACKET_HEADER.unpack_from(text) == (1234, 987)
        assert text[PACKET_HEADER.size :] == b"data"
        assert PACKET_HEADER.pack(0x1234, 0xABCD) == b"\x12\x34\xab\xcd"

    def test_empty_payload_roundtrip(self):
        text = PACKET_HEADER.pack(1234, 987)
        assert len(text) == PACKET_HEADER.size == 4
        assert text[PACKET_HEADER.size :] == b""

    def test_seq_and_direction_from_nonce(self):
        """Sequence number and direction travel in the cleartext nonce,
        ahead of the sealed header."""
        text = PACKET_HEADER.pack(1234, 987) + b"data"
        raw = NullSession().encrypt(Message(Nonce(0, 42), text))
        nonce = Nonce.from_wire(raw[:8])
        assert (nonce.seq, nonce.direction) == (42, 0)
        assert NullSession().decrypt(raw).text == text

    def test_short_body_raises(self):
        with pytest.raises(struct.error):
            PACKET_HEADER.unpack_from(b"\x00")

    def test_none_timestamp_constant(self):
        assert TIMESTAMP_NONE == 0xFFFF

    @given(st.binary(max_size=600), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_roundtrip_property(self, payload, ts, tsr):
        text = PACKET_HEADER.pack(ts, tsr) + payload
        assert PACKET_HEADER.unpack_from(text) == (ts, tsr)
        assert text[PACKET_HEADER.size :] == payload

    @given(st.integers(), st.integers())
    def test_out_of_range_timestamps_rejected(self, ts, tsr):
        if 0 <= ts <= 0xFFFF and 0 <= tsr <= 0xFFFF:
            assert len(PACKET_HEADER.pack(ts, tsr)) == 4
        else:
            with pytest.raises(struct.error):
                PACKET_HEADER.pack(ts, tsr)


class TestConnIdHeader:
    def test_roundtrip_small_ids(self):
        for conn_id in (0, 1, 7, 127, 128, 300, 16383, 16384):
            raw = encode_conn_id(conn_id) + bytes(8)
            assert peek_conn_id(raw) == (conn_id, len(raw) - 8)

    def test_magic_byte(self):
        assert encode_conn_id(1)[0] == CONN_WIRE_MAGIC

    def test_single_byte_ids_are_two_byte_headers(self):
        for conn_id in range(128):
            assert len(encode_conn_id(conn_id)) == 2

    def test_max_conn_id_roundtrips(self):
        raw = encode_conn_id(MAX_CONN_ID) + bytes(8)
        assert peek_conn_id(raw) == (MAX_CONN_ID, 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            encode_conn_id(-1)
        with pytest.raises(PacketError):
            encode_conn_id(MAX_CONN_ID + 1)

    def test_v1_datagram_peeks_as_unframed(self):
        # A v1 datagram starts with the nonce: direction bit over seven
        # high sequence bits, so byte 0 is 0x00 or 0x80 — never the magic.
        assert peek_conn_id(bytes(8)) == (None, 0)
        assert peek_conn_id(bytes([0x80]) + bytes(7)) == (None, 0)

    def test_too_short_returns_none(self):
        assert peek_conn_id(b"") is None
        assert peek_conn_id(bytes(7)) is None
        assert peek_conn_id(encode_conn_id(5)) is None  # header, no nonce

    def test_truncated_varint_returns_none(self):
        # Continuation bit set on every byte: the varint never terminates.
        raw = bytes([CONN_WIRE_MAGIC]) + bytes([0x80] * 12)
        assert peek_conn_id(raw) is None

    def test_overlong_encoding_rejected(self):
        # 0x85 0x00 re-encodes 5 with a trailing zero group; a forgery
        # vector if two spellings of one id were both accepted.
        raw = bytes([CONN_WIRE_MAGIC, 0x85, 0x00]) + bytes(8)
        assert peek_conn_id(raw) is None

    def test_header_without_room_for_nonce_returns_none(self):
        raw = encode_conn_id(300) + bytes(7)
        assert peek_conn_id(raw) is None

    @given(st.integers(0, MAX_CONN_ID), st.binary(min_size=8, max_size=64))
    def test_roundtrip_property(self, conn_id, tail):
        header = encode_conn_id(conn_id)
        peeked = peek_conn_id(header + tail)
        assert peeked == (conn_id, len(header))

    @given(st.binary(max_size=64))
    def test_peek_never_raises(self, raw):
        result = peek_conn_id(raw)
        if result is not None:
            conn_id, header_len = result
            assert (conn_id is None) == (header_len == 0)
