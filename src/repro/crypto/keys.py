"""Session keys and nonces.

Mosh bootstraps a session by running the unprivileged server over SSH; the
server prints a random shared key, and both sides then speak AES-OCB over
UDP (§2.1). The key is conventionally printed as 22 base64 characters
(128 bits, padding stripped).

The OCB nonce is 12 bytes: four zero bytes followed by a 64-bit value whose
top bit is the *direction* (0 = to server, 1 = to client) and whose low 63
bits are the datagram sequence number. Sequence numbers never repeat within
a session, which is what makes the single shared key safe.
"""

from __future__ import annotations

import base64
import os
from collections import namedtuple

from repro.errors import CryptoError

KEY_LEN = 16
NONCE_LEN = 12

DIRECTION_TO_SERVER = 0
DIRECTION_TO_CLIENT = 1

_DIRECTION_BIT = 1 << 63
_SEQ_MASK = _DIRECTION_BIT - 1


class Base64Key:
    """A 128-bit session key with Mosh's textual representation."""

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_LEN:
            raise CryptoError(f"key must be {KEY_LEN} bytes, got {len(key)}")
        self._key = bytes(key)

    @classmethod
    def new(cls) -> "Base64Key":
        """Generate a fresh random key from the OS CSPRNG."""
        return cls(os.urandom(KEY_LEN))

    @classmethod
    def from_printable(cls, text: str) -> "Base64Key":
        """Parse the 22-character base64 form printed at session start."""
        text = text.strip()
        if len(text) != 22:
            raise CryptoError(f"printable key must be 22 chars, got {len(text)}")
        try:
            raw = base64.b64decode(text + "==", validate=True)
        except Exception as exc:
            raise CryptoError(f"invalid base64 key: {exc}") from exc
        return cls(raw)

    @property
    def key(self) -> bytes:
        return self._key

    def printable(self) -> str:
        """The 22-character base64 form (padding stripped)."""
        return base64.b64encode(self._key).decode("ascii").rstrip("=")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Base64Key):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return "Base64Key(<secret>)"


#: The four zero bytes that pad the 8-byte wire nonce to OCB's 12 bytes.
OCB_NONCE_PREFIX = bytes(4)


class Nonce(namedtuple("Nonce", ("direction", "seq"))):
    """Direction bit plus 63-bit sequence number, as an immutable tuple.

    The wire form is the low 8 bytes (big-endian); the OCB nonce form pads
    with four leading zero bytes to 12 bytes. The constructor validates
    both fields. :meth:`from_wire` skips that check, because every 8-byte
    value splits into a valid direction bit and sequence number; so may a
    sender that draws ``seq`` from its own counter, whose direction it
    validated once (``tuple.__new__(Nonce, (direction, seq))``).
    """

    __slots__ = ()

    def __new__(cls, direction: int, seq: int) -> "Nonce":
        if direction not in (DIRECTION_TO_SERVER, DIRECTION_TO_CLIENT):
            raise CryptoError(f"bad direction {direction}")
        if not 0 <= seq <= _SEQ_MASK:
            raise CryptoError(f"sequence number {seq} out of range")
        return tuple.__new__(cls, (direction, seq))

    @property
    def value(self) -> int:
        """The combined 64-bit direction|seq value."""
        return (self.direction << 63) | self.seq

    def wire(self) -> bytes:
        """8-byte form transmitted in the clear at the packet head."""
        return ((self.direction << 63) | self.seq).to_bytes(8, "big")

    def ocb(self) -> bytes:
        """12-byte OCB nonce."""
        return OCB_NONCE_PREFIX + self.wire()

    @classmethod
    def from_wire(cls, data: bytes) -> "Nonce":
        """Parse the 8-byte wire form."""
        if len(data) != 8:
            raise CryptoError(f"nonce wire form must be 8 bytes, got {len(data)}")
        value = int.from_bytes(data, "big")
        return tuple.__new__(cls, (value >> 63, value & _SEQ_MASK))
