"""SSP packet format.

Every outgoing datagram carries a millisecond timestamp and an optional
"timestamp reply" containing the most recently received timestamp from the
remote host, adjusted by the hold time (§2.2). Both are 16-bit millisecond
values that wrap; RTT samples are computed modulo 2^16, which is safe
because SSP's retransmission timer is capped at one second.

Wire layout of a packet payload (before sealing):

    2 bytes   timestamp        (sender clock, ms, mod 2^16)
    2 bytes   timestamp reply  (0xFFFF = none)
    N bytes   transport payload (fragment bytes)

The cleartext 8-byte nonce (direction | sequence number) travels ahead of
the sealed payload; see :mod:`repro.crypto.session`.

Muxed sessions (the one-port daemon, :mod:`repro.daemon`) prepend one more
cleartext field ahead of the nonce — a connection id that routes the
datagram to its session without touching any key material::

    1 byte    0xD6 magic (never the first byte of an unframed datagram)
    1-9 bytes connection id, LEB128 varint (7 bits per byte, MSB = more)
    8 bytes   nonce
    N+16      sealed payload

An unframed datagram (a point-to-point session, one port per session)
starts directly with the nonce, whose first byte is the
direction bit over seven high sequence bits — ``0x00`` or ``0x80`` for any
sequence number below 2^55, i.e. for every datagram a real session can
ever emit — so the magic byte makes the two layouts self-describing.
The conn id is *routing* metadata, deliberately outside the sealed
region: a forged or replayed id can only steer a datagram to a session
whose key will refuse it, which is exactly as harmful as dropping it.
"""

from __future__ import annotations

import struct

from repro.errors import PacketError

#: Default maximum datagram payload, matching Mosh's conservative SEND_MTU.
MTU_DEFAULT = 500

TIMESTAMP_NONE = 0xFFFF

#: First byte of a muxed datagram; unframed datagrams start with the nonce.
CONN_WIRE_MAGIC = 0xD6

#: Connection ids are 63-bit like sequence numbers (9 varint bytes max).
MAX_CONN_ID = (1 << 63) - 1

_MAX_VARINT_BYTES = 9

#: The codec of the sealed packet header: timestamp, then timestamp reply.
#: Endpoints pack it ahead of the transport payload and unpack it from an
#: unsealed body, so no per-datagram record object is built either way.
PACKET_HEADER = struct.Struct("!HH")


def encode_conn_id(conn_id: int) -> bytes:
    """The cleartext mux header for ``conn_id``: magic + LEB128 varint."""
    if not 0 <= conn_id <= MAX_CONN_ID:
        raise PacketError(f"connection id {conn_id} out of range")
    out = bytearray([CONN_WIRE_MAGIC])
    value = conn_id
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def peek_conn_id(raw: bytes | memoryview) -> tuple[int | None, int] | None:
    """Pre-auth peek at a datagram's connection id.

    Returns ``(conn_id, header_len)`` for a framed datagram, ``(None, 0)``
    for an unframed one (no mux header, nonce first), and ``None`` for
    anything unparseable — truncated varints, overlong encodings, or
    datagrams too short to even hold a nonce. Never raises: this runs on
    every inbound datagram before any authentication.
    """
    if len(raw) < 8:
        return None
    if raw[0] != CONN_WIRE_MAGIC:
        return (None, 0)
    value = 0
    shift = 0
    limit = min(len(raw), 1 + _MAX_VARINT_BYTES)
    for i in range(1, limit):
        byte = raw[i]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and i > 1:
                return None  # overlong encoding (trailing zero group)
            header_len = i + 1
            if len(raw) < header_len + 8:
                return None  # no room left for the nonce
            return (value, header_len)
        shift += 7
    return None  # truncated (or > 9-byte) varint


def timestamp16(now_ms: float) -> int:
    """Fold a millisecond clock into the 16-bit wire timestamp."""
    return int(now_ms) & 0xFFFF


def timestamp_diff(later: int, earlier: int) -> int:
    """Elapsed milliseconds between two 16-bit timestamps (mod 2^16)."""
    return (later - earlier) & 0xFFFF
