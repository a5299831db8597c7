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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Nonce:
    """Direction bit plus 63-bit sequence number.

    The wire form is the low 8 bytes (big-endian); the OCB nonce form pads
    with four leading zero bytes to 12 bytes. Both encodings are cached on
    first use — the sealing path asks for each once per datagram, and a
    nonce's fields are frozen so the encodings can never go stale.
    """

    direction: int
    seq: int

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_TO_SERVER, DIRECTION_TO_CLIENT):
            raise CryptoError(f"bad direction {self.direction}")
        if not 0 <= self.seq <= _SEQ_MASK:
            raise CryptoError(f"sequence number {self.seq} out of range")

    @property
    def value(self) -> int:
        """The combined 64-bit direction|seq value."""
        return (self.direction << 63) | self.seq

    def wire(self) -> bytes:
        """8-byte form transmitted in the clear at the packet head."""
        # Frozen dataclasses still have a plain __dict__; cached encodings
        # live there, invisible to the generated __eq__/__hash__.
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = self.__dict__["_wire"] = self.value.to_bytes(8, "big")
        return wire

    def ocb(self) -> bytes:
        """12-byte OCB nonce."""
        ocb = self.__dict__.get("_ocb")
        if ocb is None:
            ocb = self.__dict__["_ocb"] = OCB_NONCE_PREFIX + self.wire()
        return ocb

    @classmethod
    def from_wire(cls, data: bytes) -> "Nonce":
        if len(data) != 8:
            raise CryptoError(f"nonce wire form must be 8 bytes, got {len(data)}")
        value = int.from_bytes(data, "big")
        # Every 8-byte value splits into a valid direction bit and sequence
        # number, so this per-datagram path skips the validating
        # constructor and fills the frozen instance's fields directly.
        nonce = object.__new__(cls)
        nonce.__dict__.update(
            direction=value >> 63, seq=value & _SEQ_MASK, _wire=bytes(data)
        )
        return nonce
