"""Fragmentation and reassembly."""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FragmentError
from repro.transport.fragment import (
    MAX_INSTRUCTION_LEN,
    OVERHEAD,
    FragmentAssembly,
    Fragmenter,
    peek_fragment,
)


def fragment(instruction_id, fragment_num, final, payload=b""):
    """A hand-built wire fragment (header layout from the module docs)."""
    word = fragment_num | (0x8000 if final else 0)
    return struct.pack("!QH", instruction_id, word) + payload


class TestFragmentCodec:
    def test_roundtrip(self):
        instruction_id, datagrams = Fragmenter().make_fragments(b"abc", 100)
        assert datagrams[0][:OVERHEAD] == fragment(instruction_id, 0, True)
        assert zlib.decompress(datagrams[0][OVERHEAD:]) == b"abc"

    def test_final_flag_is_top_bit(self):
        _, datagrams = Fragmenter().make_fragments(bytes(range(256)) * 4, 64)
        assert datagrams[-1][8] & 0x80
        assert not any(d[8] & 0x80 for d in datagrams[:-1])

    def test_short_data_rejected(self):
        with pytest.raises(FragmentError):
            FragmentAssembly().add_fragment(b"\x00\x01")
        with pytest.raises(FragmentError):
            FragmentAssembly().add_fragment(bytes(OVERHEAD - 1))

    def test_fragment_num_bounds(self):
        """An instruction needing fragment number 0x8000 is refused."""
        # Incompressible, and one byte per fragment: the stream needs more
        # fragment numbers than the 15-bit field holds.
        data = random.Random(1).randbytes(0x8100)
        assert len(zlib.compress(data, 6)) > 0x8000
        with pytest.raises(FragmentError, match="32768"):
            Fragmenter().make_fragments(data, OVERHEAD + 1)

    def test_large_fragment_numbers_accepted(self):
        data = random.Random(2).randbytes(0x7F00)
        size = len(zlib.compress(data, 6))
        assert size <= 0x8000
        _, datagrams = Fragmenter().make_fragments(data, OVERHEAD + 1)
        assert len(datagrams) == size
        assert peek_fragment(datagrams[-1])[1:] == (size - 1, True)

    def test_corrupt_stream_rejected(self):
        with pytest.raises(FragmentError):
            FragmentAssembly().add_fragment(fragment(0, 0, True, b"not zlib"))

    @given(
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 0x7FFF),
        st.booleans(),
        st.binary(max_size=64),
    )
    def test_peek_roundtrip_property(self, instruction_id, num, final, payload):
        raw = fragment(instruction_id, num, final, payload)
        assert peek_fragment(raw) == (instruction_id, num, final)

    @given(st.binary(max_size=OVERHEAD - 1))
    def test_short_data_property(self, data):
        assert peek_fragment(data) is None
        with pytest.raises(FragmentError):
            FragmentAssembly().add_fragment(data)


class TestFragmenter:
    def test_single_fragment_when_small(self):
        _, datagrams = Fragmenter().make_fragments(b"tiny", mtu=100)
        assert len(datagrams) == 1
        assert peek_fragment(datagrams[0])[2]
        assert FragmentAssembly().add_fragment(datagrams[0]) == b"tiny"

    def test_splits_at_mtu(self):
        import os

        data = os.urandom(512)  # incompressible: forces real splitting
        mtu = 64
        _, datagrams = Fragmenter().make_fragments(data, mtu)
        assert len(datagrams) > 1
        assert all(len(d) <= mtu for d in datagrams)
        finals = [peek_fragment(d)[2] for d in datagrams]
        assert finals == [False] * (len(datagrams) - 1) + [True]
        assert [peek_fragment(d)[1] for d in datagrams] == list(
            range(len(datagrams))
        )
        assembly = FragmentAssembly()
        out = None
        for d in datagrams:
            out = assembly.add_fragment(d)
        assert out == data

    def test_compression_shrinks_repetitive_diffs(self):
        """Screen diffs are repetitive ANSI text; the wire size should be
        far below the raw size (Mosh compresses instructions too)."""
        diff = (b"\x1b[5;1H" + b"the same line of text " * 3) * 50
        _, datagrams = Fragmenter().make_fragments(diff, mtu=1400)
        wire = sum(len(d) for d in datagrams)
        assert wire < len(diff) / 5

    def test_ids_increment(self):
        fragmenter = Fragmenter()
        a, _ = fragmenter.make_fragments(b"one", 100)
        b, datagrams = fragmenter.make_fragments(b"two", 100)
        assert b == a + 1
        assert peek_fragment(datagrams[0])[0] == b

    def test_identical_instruction_reuses_id(self):
        fragmenter = Fragmenter()
        a = fragmenter.make_fragments(b"same", 100)
        b = fragmenter.make_fragments(b"same", 100)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_mtu_too_small(self):
        with pytest.raises(FragmentError):
            Fragmenter().make_fragments(b"x", OVERHEAD)


class TestAssembly:
    def _frags(self, data=b"hello world", mtu=14, fragmenter=None):
        return (fragmenter or Fragmenter()).make_fragments(data, mtu)[1]

    def test_in_order_assembly(self):
        assembly = FragmentAssembly()
        frags = self._frags()
        assert len(frags) > 1
        results = [assembly.add_fragment(f) for f in frags]
        assert results[:-1] == [None] * (len(frags) - 1)
        assert results[-1] == b"hello world"

    def test_out_of_order_assembly(self):
        assembly = FragmentAssembly()
        frags = self._frags()
        results = [assembly.add_fragment(f) for f in reversed(frags)]
        assert results[-1] == b"hello world"

    def test_duplicates_ignored(self):
        assembly = FragmentAssembly()
        frags = self._frags()
        assert len(frags) >= 2
        assert assembly.add_fragment(frags[0]) is None
        assert assembly.add_fragment(frags[0]) is None  # duplicate
        out = None
        for f in frags[1:]:
            out = assembly.add_fragment(f)
        assert out == b"hello world"

    def test_newer_instruction_discards_partial(self):
        fragmenter = Fragmenter()
        old = self._frags(b"old instruction", fragmenter=fragmenter)
        new = self._frags(b"new instruction", fragmenter=fragmenter)
        assembly = FragmentAssembly()
        assembly.add_fragment(old[0])
        for f in new[:-1]:
            assert assembly.add_fragment(f) is None
        assert assembly.add_fragment(new[-1]) == b"new instruction"
        # Stale fragment of the old instruction is dropped silently.
        assert assembly.add_fragment(old[1]) is None

    def test_completed_id_tracks_the_newest_assembly(self):
        fragmenter = Fragmenter()
        assembly = FragmentAssembly()
        assert assembly.completed_id == -1
        first_id, first = fragmenter.make_fragments(b"first", 500)
        second_id, second = fragmenter.make_fragments(b"second" * 40, 20)
        assembly.add_fragment(first[0])
        assert assembly.completed_id == first_id
        for f in second[:-1]:
            assembly.add_fragment(f)
        assert assembly.completed_id == first_id
        assembly.add_fragment(second[-1])
        assert assembly.completed_id == second_id

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=3000), st.integers(OVERHEAD + 1, 600))
    def test_roundtrip_property(self, data, mtu):
        frags = self._frags(data, mtu)
        assembly = FragmentAssembly()
        out = None
        for f in frags:
            out = assembly.add_fragment(f)
        assert out == data


class TestDuplicateSuppression:
    def test_single_fragment_duplicate_not_reassembled_twice(self):
        _, frags = Fragmenter().make_fragments(b"payload", 500)
        assert len(frags) == 1
        assembly = FragmentAssembly()
        assert assembly.add_fragment(frags[0]) == b"payload"
        # The same (retransmitted or link-duplicated) fragment again:
        # without completed-id tracking this would reassemble a second
        # time, double-applying at the transport layer.
        assert assembly.add_fragment(frags[0]) is None

    def test_retransmitted_multi_fragment_instruction_suppressed(self):
        _, frags = Fragmenter().make_fragments(bytes(range(256)) * 8, 100)
        assert len(frags) > 1
        assembly = FragmentAssembly()
        out = None
        for f in frags:
            out = assembly.add_fragment(f)
        assert out == bytes(range(256)) * 8
        for f in frags:  # the whole resend is ignored
            assert assembly.add_fragment(f) is None

    def test_older_id_after_completion_ignored(self):
        fragmenter = Fragmenter()
        _, old = fragmenter.make_fragments(b"old", 500)
        _, new = fragmenter.make_fragments(b"new", 500)
        assembly = FragmentAssembly()
        assert assembly.add_fragment(new[0]) == b"new"
        assert assembly.add_fragment(old[0]) is None

    def test_next_instruction_still_assembles(self):
        fragmenter = Fragmenter()
        _, first = fragmenter.make_fragments(b"first", 500)
        _, second = fragmenter.make_fragments(b"second", 500)
        assembly = FragmentAssembly()
        assert assembly.add_fragment(first[0]) == b"first"
        assert assembly.add_fragment(first[0]) is None
        assert assembly.add_fragment(second[0]) == b"second"

    def test_final_fragment_zero_after_partial_waits(self):
        """A lone final fragment 0 of the instruction in progress does not
        complete it while other pieces are held."""
        assembly = FragmentAssembly()
        payload = zlib.compress(b"x")
        assert assembly.add_fragment(fragment(3, 1, False, payload)) is None
        assert assembly.add_fragment(fragment(3, 0, True, payload)) is None
        assert assembly.completed_id == -1


class TestPeek:
    def test_peek_matches_decode(self):
        """The peek reads the header the fragmenter wrote and the
        assembly decodes."""
        for data, mtu in ((b"tiny", 500), (bytes(range(256)) * 8, 100)):
            instruction_id, datagrams = Fragmenter().make_fragments(data, mtu)
            last = len(datagrams) - 1
            assembly = FragmentAssembly()
            for num, raw in enumerate(datagrams):
                assert peek_fragment(raw) == (instruction_id, num, num == last)
                assembly.add_fragment(raw)
            assert assembly.completed_id == instruction_id

    def test_peek_short_data(self):
        assert peek_fragment(b"\x00" * 9) is None


class TestInflationBound:
    """An instruction inflates to at most ``MAX_INSTRUCTION_LEN`` bytes,
    mosh's compressor buffer, however small its compressed stream."""

    @staticmethod
    def _assemble(encoded):
        assembly = FragmentAssembly()
        out = None
        for f in Fragmenter().make_fragments(encoded, 1400)[1]:
            out = assembly.add_fragment(f)
        return out

    def test_bound_itself_inflates(self):
        assert len(self._assemble(bytes(MAX_INSTRUCTION_LEN))) == MAX_INSTRUCTION_LEN

    def test_one_byte_over_is_rejected(self):
        with pytest.raises(FragmentError, match="inflating past"):
            self._assemble(bytes(MAX_INSTRUCTION_LEN + 1))

    def test_a_few_kilobytes_may_not_inflate_to_megabytes(self):
        bomb = zlib.compress(bytes(16 << 20), 9)
        assert len(bomb) < 20_000
        with pytest.raises(FragmentError):
            FragmentAssembly().add_fragment(fragment(0, 0, True, bomb))

    def test_truncated_stream_is_rejected(self):
        stream = zlib.compress(b"state diff " * 40)
        with pytest.raises(FragmentError, match="truncated"):
            FragmentAssembly().add_fragment(fragment(0, 0, True, stream[:-3]))

    def test_extra_bytes_after_the_stream_are_rejected(self):
        stream = zlib.compress(b"state diff")
        with pytest.raises(FragmentError, match="extra bytes"):
            FragmentAssembly().add_fragment(fragment(0, 0, True, stream + b"x"))

    def test_next_instruction_assembles_after_a_rejected_one(self):
        assembly = FragmentAssembly()
        with pytest.raises(FragmentError):
            assembly.add_fragment(
                fragment(4, 0, True, zlib.compress(bytes(MAX_INSTRUCTION_LEN + 1)))
            )
        assert assembly.completed_id == 4
        assert assembly.add_fragment(fragment(5, 0, True, zlib.compress(b"ok"))) == b"ok"

    def test_authentic_inflating_instruction_is_dropped_and_counted(self):
        """A peer holding the key sends an instruction that inflates past
        the bound: the server drops and counts it, and the client's next
        keystrokes still reach the screen."""
        from repro.session import InProcessSession
        from repro.simnet import LinkConfig
        from repro.transport.instruction import encode_instruction

        session = InProcessSession(
            LinkConfig(delay_ms=20), LinkConfig(delay_ms=20), seed=3
        )
        session.server.on_input = session.server.host_write  # echo
        session.connect()
        server = session.server.transport
        applied = server.receiver.instructions_applied
        base = server.receiver.latest_num
        # A well-formed instruction whose diff alone fills the bound: it
        # would decode if inflated, so only the bound can stop it.
        encoded = encode_instruction(base, base + 1, 0, 0, bytes(MAX_INSTRUCTION_LEN))
        # Through the client's own fragmenter, so the bomb takes the next
        # instruction id and the client's later instructions follow it.
        _, bomb = session.client.transport.sender._fragmenter.make_fragments(
            encoded, 1400
        )
        assert sum(len(d) for d in bomb) < 6000
        for datagram in bomb:
            session.client_endpoint.send(datagram, session.loop.now())
        session.run_for(500)
        assert server.undecodable_ignored == 1
        assert server.receiver.malformed_ignored == 0
        assert server.receiver.instructions_applied == applied

        session.client.type_bytes(b"#after#")
        session.run_for(2000)
        assert server.undecodable_ignored == 1
        assert server.receiver.instructions_applied > applied
        assert "#after#" in session.client.remote_terminal.fb.row_text(0)
