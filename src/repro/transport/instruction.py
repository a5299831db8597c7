"""Instruction: the transport layer's self-contained message.

"The transport sender updates the receiver to the current state of the
object by sending an Instruction: a self-contained message listing the
source and target states and the binary 'diff' between them" (§2.3).

Mosh serializes instructions with protocol buffers; this reproduction uses
an equivalent fixed-layout encoding (documented substitution — the field
*values*, not the envelope, carry the protocol semantics):

    1 byte    protocol version
    8 bytes   old_num       (source state)
    8 bytes   new_num       (target state)
    8 bytes   ack_num       (newest state of the peer we have received)
    8 bytes   throwaway_num (peer may discard its copies of states < this)
    N bytes   diff
"""

from __future__ import annotations

import struct

from repro.errors import TransportError

PROTOCOL_VERSION = 2

_HEADER = struct.Struct("!BQQQQ")


def encode_instruction(
    old_num: int, new_num: int, ack_num: int, throwaway_num: int, diff: bytes
) -> bytes:
    """The wire form of one instruction.

    Each state number must fit its unsigned 64-bit field; one that does
    not raises :class:`TransportError`.
    """
    try:
        header = _HEADER.pack(
            PROTOCOL_VERSION, old_num, new_num, ack_num, throwaway_num
        )
    except struct.error:
        raise TransportError(
            "instruction numbers out of range: "
            f"{old_num}, {new_num}, {ack_num}, {throwaway_num}"
        ) from None
    return header + diff


def decode_instruction(data: bytes) -> tuple[int, int, int, int, bytes]:
    """Parse ``(old_num, new_num, ack_num, throwaway_num, diff)``.

    Raises :class:`TransportError` for data shorter than the header and
    for a protocol version other than :data:`PROTOCOL_VERSION`.
    """
    if len(data) < _HEADER.size:
        raise TransportError(f"instruction too short: {len(data)} bytes")
    version, old, new, ack, throwaway = _HEADER.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise TransportError(f"protocol version mismatch: {version}")
    return old, new, ack, throwaway, data[_HEADER.size :]
