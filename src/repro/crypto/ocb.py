"""OCB authenticated encryption (RFC 7253) over AES-128.

The paper bases SSP's security on "AES-128 in the Offset Codebook (OCB)
mode, which provides confidentiality and authenticity with a single secret
key" (§2.2). This module implements the OCB3 variant standardized in RFC
7253 with a 128-bit tag, validated against the RFC's published test vectors
in the test suite.

This is the paper-faithful reference cipher. :class:`repro.crypto.session
.Session` seals through OpenSSL's OCB3 when the ``cryptography`` package
imports and through this class otherwise, and the test suite checks the
two byte for byte, so this module is both the fallback and the
differential oracle.

Performance shape (when it is the fallback, it sits on the per-datagram
hot path):

* Each cipher derives its own key schedule: the AES round keys, the L
  table, and a lazily grown prefix-XOR offset table, ``Offset_i =
  Offset_nonce ^ cumulative[i]`` with ``cumulative[i] = cumulative[i-1] ^
  L[ntz(i)]``, so the per-block ``ntz``/XOR chain from the RFC's
  definition is computed once per cipher, not once per datagram. Nothing
  outlives the cipher: a session's key material goes when it does.
* All full blocks of a datagram are whitened and ciphered in one call to
  the AES kernel (``AES128.encrypt_blocks_int``). Output is assembled as
  a list of 16-byte chunks and one ``b"".join``.
* The empty associated-data case (every SSP datagram) skips the AD hash
  entirely, and the nonce-dependent Ktop block is served from a small
  keyed LRU so interleaved send/receive nonces both stay cached.
"""

from __future__ import annotations

import hmac
from collections import OrderedDict

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.errors import AuthenticationError, CryptoError

TAG_LEN = 16

_MASK128 = (1 << 128) - 1

#: Ktop LRU capacity. Nonces sharing the top 122 bits share a Ktop, so a
#: sender's monotonically increasing sequence numbers hit one entry for 64
#: datagrams in a row — but an endpoint alternates between its send and
#: receive directions, which are distinct Ktop blocks. A single-entry cache
#: thrashes in that pattern; a handful of entries keeps both directions
#: (plus a reconnect's worth of churn) resident.
_KTOP_CACHE_MAX = 8


def _double(value: int) -> int:
    """Multiplication by x in GF(2^128) (the "doubling" operation)."""
    value <<= 1
    if value >> 128:
        value = (value & _MASK128) ^ 0x87
    return value


def _ntz(i: int) -> int:
    """Number of trailing zero bits of a positive integer."""
    return (i & -i).bit_length() - 1


class OCBCipher:
    """AES-128-OCB with a 128-bit tag.

    Nonces must be 1..15 bytes and must never repeat under the same key;
    SSP guarantees that by deriving them from monotonic sequence numbers.
    ``encrypt``/``decrypt`` take the same arguments as ``cryptography``'s
    ``AESOCB3``, so a session can hold either one.
    """

    def __init__(self, key: bytes) -> None:
        self._aes = AES128(bytes(key))
        self._l_star = self._aes.encrypt_block_int(0)
        self._l_dollar = _double(self._l_star)
        # L[0..63]; ntz(i) for any realistic message length fits.
        table = [_double(self._l_dollar)]
        for _ in range(63):
            table.append(_double(table[-1]))
        self._l_table = table
        #: Prefix-XOR offset increments: cumulative[i] = L[ntz(1)] ^ ... ^
        #: L[ntz(i)], so Offset_i = Offset_nonce ^ cumulative[i]. Grown on
        #: demand to the largest message seen under this key.
        self._cumulative = [0]
        self._ktop_cache: OrderedDict[bytes, int] = OrderedDict()
        self.ktop_hits = 0
        self.ktop_misses = 0

    def _offsets(self, blocks: int) -> list[int]:
        """The cumulative offset table, extended to cover ``blocks``."""
        cum = self._cumulative
        if len(cum) <= blocks:
            l_table = self._l_table
            while len(cum) <= blocks:
                cum.append(cum[-1] ^ l_table[_ntz(len(cum))])
        return cum

    def _initial_offset(self, nonce: bytes) -> int:
        """RFC 7253 §4.2 nonce-dependent initial offset."""
        if not 1 <= len(nonce) <= 15:
            raise CryptoError(f"nonce must be 1..15 bytes, got {len(nonce)}")
        # TAGLEN mod 128 == 0 for a full 128-bit tag.
        full = bytearray(16)
        full[16 - len(nonce) - 1] = 0x01
        full[16 - len(nonce) :] = nonce
        bottom = full[15] & 0x3F
        full[15] &= 0xC0
        key = bytes(full)
        cache = self._ktop_cache
        stretch = cache.get(key)
        if stretch is None:
            self.ktop_misses += 1
            ktop = self._aes.encrypt_block(key)
            ktop_int = int.from_bytes(ktop, "big")
            shifted = int.from_bytes(ktop[1:9], "big") ^ int.from_bytes(
                ktop[0:8], "big"
            )
            stretch = (ktop_int << 64) | shifted  # 192 bits
            cache[key] = stretch
            if len(cache) > _KTOP_CACHE_MAX:
                cache.popitem(last=False)
        else:
            self.ktop_hits += 1
            cache.move_to_end(key)
        return (stretch >> (64 - bottom)) & _MASK128

    def _hash_ad(self, associated_data: bytes) -> int:
        """HASH(K, A) from RFC 7253 §4.1 (callers skip the empty case)."""
        if not associated_data:
            return 0
        m = len(associated_data) // BLOCK_SIZE
        cum = self._offsets(m)
        xs = [
            int.from_bytes(associated_data[16 * i - 16 : 16 * i], "big") ^ cum[i]
            for i in range(1, m + 1)
        ]
        tail = associated_data[m * BLOCK_SIZE :]
        if tail:
            padded = tail + b"\x80" + bytes(BLOCK_SIZE - len(tail) - 1)
            xs.append(int.from_bytes(padded, "big") ^ cum[m] ^ self._l_star)
        total = 0
        for enc in self._aes.encrypt_blocks_int(xs):
            total ^= enc
        return total

    def encrypt(
        self, nonce: bytes, plaintext: bytes, associated_data: bytes | None = None
    ) -> bytes:
        """Return ciphertext || 16-byte tag."""
        offset0 = self._initial_offset(nonce)
        data = memoryview(plaintext)
        m, tail_len = divmod(len(data), BLOCK_SIZE)
        cum = self._offsets(m)
        offset = offset0 ^ cum[m]
        tail = bytes(data[m * BLOCK_SIZE :]) if tail_len else b""
        # One fused pass builds the whitened blocks, the offsets, and the
        # plaintext checksum together (pad and tag inputs are known before
        # encryption, so they ride in the same kernel call).
        from_bytes = int.from_bytes
        xs: list[int] = []
        offs: list[int] = []
        checksum = 0
        pos = 0
        for i in range(1, m + 1):
            block = from_bytes(data[pos : pos + 16], "big")
            off = offset0 ^ cum[i]
            checksum ^= block
            xs.append(block ^ off)
            offs.append(off)
            pos += 16
        if tail:
            offset ^= self._l_star
            xs.append(offset)
            checksum ^= from_bytes(
                tail + b"\x80" + bytes(BLOCK_SIZE - tail_len - 1), "big"
            )
        xs.append(checksum ^ offset ^ self._l_dollar)
        enc = self._aes.encrypt_blocks_int(xs)
        parts = [(c ^ o).to_bytes(16, "big") for c, o in zip(enc, offs)]
        if tail:
            pad = enc[m].to_bytes(16, "big")
            parts.append(bytes(p ^ k for p, k in zip(tail, pad)))
        tag = enc[-1]
        if associated_data:
            tag ^= self._hash_ad(associated_data)
        parts.append(tag.to_bytes(16, "big"))
        return b"".join(parts)

    def decrypt(
        self, nonce: bytes, ciphertext: bytes, associated_data: bytes | None = None
    ) -> bytes:
        """Verify the tag and return the plaintext.

        Raises :class:`AuthenticationError` if the tag does not verify;
        no plaintext is released in that case.
        """
        if len(ciphertext) < TAG_LEN:
            raise AuthenticationError("ciphertext shorter than the tag")
        data = memoryview(ciphertext)
        n = len(data) - TAG_LEN
        body = data[:n]
        offset0 = self._initial_offset(nonce)
        m, tail_len = divmod(n, BLOCK_SIZE)
        cum = self._offsets(m)
        from_bytes = int.from_bytes
        xs: list[int] = []
        offs: list[int] = []
        pos = 0
        for i in range(1, m + 1):
            off = offset0 ^ cum[i]
            xs.append(from_bytes(body[pos : pos + 16], "big") ^ off)
            offs.append(off)
            pos += 16
        parts: list[bytes] = []
        append = parts.append
        checksum = 0
        for dec, off in zip(self._aes.decrypt_blocks_int(xs), offs):
            plain = dec ^ off
            checksum ^= plain
            append(plain.to_bytes(16, "big"))
        offset = offset0 ^ cum[m]
        if tail_len:
            tail = bytes(body[m * BLOCK_SIZE :])
            offset ^= self._l_star
            pad = self._aes.encrypt_block_int(offset).to_bytes(16, "big")
            plain_tail = bytes(c ^ k for c, k in zip(tail, pad))
            parts.append(plain_tail)
            checksum ^= int.from_bytes(
                plain_tail + b"\x80" + bytes(BLOCK_SIZE - tail_len - 1), "big"
            )
        expected = self._aes.encrypt_block_int(checksum ^ offset ^ self._l_dollar)
        if associated_data:
            expected ^= self._hash_ad(associated_data)
        if not hmac.compare_digest(
            expected.to_bytes(16, "big"), bytes(data[n:])
        ):
            raise AuthenticationError("OCB tag verification failed")
        return b"".join(parts)
