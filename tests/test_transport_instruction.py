"""Instruction encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.transport.instruction import (
    PROTOCOL_VERSION,
    decode_instruction,
    encode_instruction,
)

nums = st.integers(0, (1 << 64) - 1)


class TestEncoding:
    def test_roundtrip(self):
        raw = encode_instruction(1, 2, 3, 0, b"delta")
        assert decode_instruction(raw) == (1, 2, 3, 0, b"delta")

    def test_layout(self):
        raw = encode_instruction(1, 2, 3, 4, b"d")
        assert raw[0] == PROTOCOL_VERSION
        assert len(raw) == 1 + 4 * 8 + 1
        assert raw[1:9] == (1).to_bytes(8, "big")
        assert raw[25:33] == (4).to_bytes(8, "big")

    def test_empty_diff(self):
        again = decode_instruction(encode_instruction(5, 5, 9, 2, b""))
        assert again == (5, 5, 9, 2, b"")

    def test_version_checked(self):
        raw = bytearray(encode_instruction(1, 2, 3, 0, b"d"))
        raw[0] = PROTOCOL_VERSION + 1
        with pytest.raises(TransportError):
            decode_instruction(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(TransportError):
            decode_instruction(b"\x02\x00\x00")

    def test_out_of_range_nums(self):
        with pytest.raises(TransportError):
            encode_instruction(-1, 0, 0, 0, b"")
        with pytest.raises(TransportError):
            encode_instruction(0, 1 << 64, 0, 0, b"")
        with pytest.raises(TransportError):
            encode_instruction(0, 0, 1 << 64, 0, b"")
        with pytest.raises(TransportError):
            encode_instruction(0, 0, 0, -1, b"")

    @given(nums, nums, nums, nums, st.binary(max_size=1000))
    def test_roundtrip_property(self, old, new, ack, throwaway, diff):
        raw = encode_instruction(old, new, ack, throwaway, diff)
        assert decode_instruction(raw) == (old, new, ack, throwaway, diff)

    @given(st.lists(st.integers(-(1 << 65), 1 << 65), min_size=4, max_size=4))
    def test_out_of_range_property(self, values):
        if all(0 <= v < 1 << 64 for v in values):
            assert decode_instruction(encode_instruction(*values, b""))[:4] == (
                tuple(values)
            )
        else:
            with pytest.raises(TransportError):
                encode_instruction(*values, b"")

    @given(st.binary(max_size=40))
    def test_decode_raises_only_transport_errors(self, data):
        try:
            fields = decode_instruction(data)
        except TransportError:
            assert len(data) < 33 or data[0] != PROTOCOL_VERSION
        else:
            assert encode_instruction(*fields) == data
