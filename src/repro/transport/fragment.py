"""Fragmentation of instructions into MTU-sized datagrams.

An instruction can exceed the path MTU (a full screen repaint, a burst of
typed input). Like Mosh, the fragmenter zlib-compresses the encoded
instruction — screen diffs are highly repetitive ANSI text — and splits
the result into numbered fragments under a shared instruction id. The
assembler rebuilds and decompresses, and discards partial older
instructions as soon as a fragment of a newer one arrives — there is no
point completing a superseded frame, because a newer diff always
fast-forwards past it.

Fragment wire layout::

    8 bytes   instruction id
    2 bytes   fragment number (15 bits) | final flag (top bit)
    N bytes   payload (zlib stream of the encoded instruction)
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import FragmentError

_HEADER = struct.Struct("!QH")
_FINAL_FLAG = 0x8000
_FRAG_MASK = 0x7FFF

#: Bytes of each datagram consumed by the fragment header.
OVERHEAD = _HEADER.size


def peek_fragment(data: bytes) -> tuple[int, int, bool] | None:
    """Parse just the header: (instruction_id, fragment_num, final).

    The flight recorder tags every received datagram with the fragment it
    carried; this costs one struct unpack and never touches the
    compressed payload. Returns None for data too short to be a fragment.
    """
    if len(data) < OVERHEAD:
        return None
    instruction_id, word = _HEADER.unpack_from(data)
    return instruction_id, word & _FRAG_MASK, bool(word & _FINAL_FLAG)


class Fragmenter:
    """Splits encoded instructions, assigning monotonic instruction ids."""

    def __init__(self) -> None:
        self._next_id = 0
        self._last_encoded: bytes | None = None
        self._last_fragments: tuple[int, list[bytes]] | None = None

    def make_fragments(self, encoded: bytes, mtu: int) -> tuple[int, list[bytes]]:
        """Compress and split ``encoded`` into wire fragments of <= ``mtu``.

        Returns ``(instruction_id, datagrams)``: each datagram is a whole
        fragment, header included, and only the last carries the final
        flag.
        """
        chunk = mtu - OVERHEAD
        if chunk <= 0:
            raise FragmentError(f"MTU {mtu} cannot fit the fragment header")
        if encoded == self._last_encoded and self._last_fragments is not None:
            # Retransmission of the identical instruction reuses its id, so
            # the assembler can merge fragments across the two sendings.
            return self._last_fragments
        compressed = zlib.compress(encoded, 6)
        # The fragment number is 15 bits: check the last one, once.
        last = max(0, len(compressed) - 1) // chunk
        if last > _FRAG_MASK:
            raise FragmentError(f"fragment number {_FRAG_MASK + 1} too big")
        instruction_id = self._next_id
        self._next_id += 1
        pack = _HEADER.pack
        datagrams = [
            pack(instruction_id, num | (_FINAL_FLAG if num == last else 0))
            + compressed[num * chunk : (num + 1) * chunk]
            for num in range(last + 1)
        ]
        self._last_encoded = encoded
        self._last_fragments = (instruction_id, datagrams)
        return self._last_fragments


class FragmentAssembly:
    """Rebuilds instructions from fragments of the newest instruction id."""

    def __init__(self) -> None:
        self._current_id = -1
        self._pieces: dict[int, bytes] = {}
        self._total: int | None = None
        #: Id of the newest instruction assembled (-1 before the first).
        self.completed_id = -1

    def add_fragment(self, data: bytes) -> bytes | None:
        """Add one wire fragment; returns the encoded instruction when
        complete.

        Raises :class:`FragmentError` for data too short to hold the
        header and for a corrupt compressed stream. Fragments of an
        already-completed instruction id are ignored, so duplicate
        delivery (a link that duplicates, or a retransmission arriving
        after the original assembled) can never yield a second
        reassembly of the same instruction.
        """
        if len(data) < OVERHEAD:
            raise FragmentError(f"fragment too short: {len(data)} bytes")
        instruction_id, word = _HEADER.unpack_from(data)
        if instruction_id <= self.completed_id:
            return None  # already assembled (or older still); duplicate
        if instruction_id > self._current_id:
            self._current_id = instruction_id
            self._pieces = {}
            self._total = None
            if word == _FINAL_FLAG:
                # Fragment 0 and final: the whole instruction, no pieces.
                return self._complete(data[OVERHEAD:])
        elif instruction_id < self._current_id:
            return None  # stale instruction; a newer one is in progress
        num = word & _FRAG_MASK
        self._pieces[num] = data[OVERHEAD:]
        if word & _FINAL_FLAG:
            self._total = num + 1
        if self._total is None or len(self._pieces) < self._total:
            return None
        if set(self._pieces) != set(range(self._total)):
            return None  # duplicate fragments counted; wait for the rest
        compressed = b"".join(self._pieces[i] for i in range(self._total))
        self._pieces = {}
        self._total = None
        return self._complete(compressed)

    def _complete(self, compressed: bytes) -> bytes:
        self.completed_id = self._current_id
        try:
            return zlib.decompress(compressed)
        except zlib.error as exc:
            raise FragmentError(f"corrupt instruction stream: {exc}") from exc
