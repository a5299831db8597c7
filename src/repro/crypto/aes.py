"""AES-128 block cipher, implemented from scratch (FIPS 197).

The S-box is derived from the definition (multiplicative inverse in
GF(2^8) followed by the affine map). It is the block cipher under the
reference OCB mode (:mod:`repro.crypto.ocb`), which sessions fall back to
when OpenSSL's OCB3 (through the ``cryptography`` package) is not
importable, and which the test suite uses as the differential oracle for
the OpenSSL backend.

One kernel, :func:`_crypt`, does all the work. A block is one 128-bit
int with the first wire byte in the most significant position, and a
round is one XOR chain of 16 lookups into per-byte-position tables whose
entries are full 128-bit contributions (SubBytes, ShiftRows and
MixColumns folded together), so the round function never splits the
state into words. ``encrypt_block``/``decrypt_block`` are bytes wrappers
over it; OCB calls the ``*_blocks_int`` forms with every block of a
datagram at once.

The tables are key-independent and built lazily on the first
:class:`AES128` (~0.5 MB per direction, a few milliseconds); round keys
enter the kernel as eleven 128-bit constants. Only the forward cipher and
its inverse on 16-byte blocks are exposed; modes of operation live in
:mod:`repro.crypto.ocb`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import CryptoError

BLOCK_SIZE = 16
KEY_SIZE = 16
_ROUNDS = 10


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    """Derive the AES S-box and its inverse from first principles."""
    # Multiplicative inverses via exponentiation tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(v: int) -> int:
        if v == 0:
            return 0
        return exp[255 - log[v]]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inv = inverse(value)
        # Affine transformation: bit_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6}
        # ^ b_{i+7} ^ c_i with c = 0x63.
        res = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            res |= b << bit
        sbox[value] = res
        inv_sbox[res] = value
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

#: First row of the (Inv)MixColumns circulant matrix: output row r takes
#: ``coefs[(b - r) % 4]`` times the byte in row b.
_MIX = (2, 3, 1, 1)
_INV_MIX = (14, 11, 13, 9)


def _build_tables(
    sbox: list[int], coefs: tuple[int, ...], sign: int
) -> tuple[list[list[int]], list[list[int]]]:
    """(round, final) tables for one direction.

    Input byte i = 4*a + b (column a, row b) lands in output column
    j = (a + sign*b) mod 4: ShiftRows rotates row b left by b (``sign``
    -1), InvShiftRows right (``sign`` +1). ``round[i][v]`` is the mixed
    column of ``sbox[v]`` placed at column j; ``final[i][v]`` is plain
    ``sbox[v]`` at column j, row b, for the last round, which has no
    MixColumns.
    """
    words: list[list[int]] = [[], [], [], []]
    for s in sbox:
        products = [_gf_mul(s, c) for c in coefs]
        for b in range(4):
            words[b].append(
                (products[b] << 24)
                | (products[(b - 1) % 4] << 16)
                | (products[(b - 2) % 4] << 8)
                | products[(b - 3) % 4]
            )
    rounds: list[list[int]] = []
    final: list[list[int]] = []
    for i in range(BLOCK_SIZE):
        a, b = divmod(i, 4)
        shift = 96 - 32 * ((a + sign * b) % 4)
        rounds.append([w << shift for w in words[b]])
        final.append([s << (shift + 24 - 8 * b) for s in sbox])
    return rounds, final


_TABLES: dict[bool, tuple[list[list[int]], list[list[int]]]] = {}


def _tables(encrypting: bool) -> tuple[list[list[int]], list[list[int]]]:
    """The (round, final) tables of one direction, built on first use."""
    tables = _TABLES.get(encrypting)
    if tables is None:
        if encrypting:
            tables = _build_tables(SBOX, _MIX, -1)
        else:
            tables = _build_tables(INV_SBOX, _INV_MIX, 1)
        _TABLES[encrypting] = tables
    return tables


def _crypt(blocks: Iterable[int], tables, round_keys) -> list[int]:
    """Run each 128-bit block through every round of one direction.

    ``tables`` is a :func:`_tables` pair and ``round_keys`` the eleven
    128-bit round keys of that direction, in the order they are applied.
    """
    rounds, final = tables
    (t0, t1, t2, t3, t4, t5, t6, t7,
     t8, t9, t10, t11, t12, t13, t14, t15) = rounds
    (f0, f1, f2, f3, f4, f5, f6, f7,
     f8, f9, f10, f11, f12, f13, f14, f15) = final
    first, *middle, last = round_keys
    out = []
    append = out.append
    for x in blocks:
        x ^= first
        for k in middle:
            x = (
                t0[x >> 120] ^ t1[(x >> 112) & 255]
                ^ t2[(x >> 104) & 255] ^ t3[(x >> 96) & 255]
                ^ t4[(x >> 88) & 255] ^ t5[(x >> 80) & 255]
                ^ t6[(x >> 72) & 255] ^ t7[(x >> 64) & 255]
                ^ t8[(x >> 56) & 255] ^ t9[(x >> 48) & 255]
                ^ t10[(x >> 40) & 255] ^ t11[(x >> 32) & 255]
                ^ t12[(x >> 24) & 255] ^ t13[(x >> 16) & 255]
                ^ t14[(x >> 8) & 255] ^ t15[x & 255] ^ k
            )
        append(
            f0[x >> 120] ^ f1[(x >> 112) & 255]
            ^ f2[(x >> 104) & 255] ^ f3[(x >> 96) & 255]
            ^ f4[(x >> 88) & 255] ^ f5[(x >> 80) & 255]
            ^ f6[(x >> 72) & 255] ^ f7[(x >> 64) & 255]
            ^ f8[(x >> 56) & 255] ^ f9[(x >> 48) & 255]
            ^ f10[(x >> 40) & 255] ^ f11[(x >> 32) & 255]
            ^ f12[(x >> 24) & 255] ^ f13[(x >> 16) & 255]
            ^ f14[(x >> 8) & 255] ^ f15[x & 255] ^ last
        )
    return out


def _expand_key(key: bytes) -> list[int]:
    """FIPS 197 key expansion, packed as eleven 128-bit round keys."""
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(4)]
    for i in range(4, 4 * (_ROUNDS + 1)):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = (
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return [
        (words[4 * r] << 96)
        | (words[4 * r + 1] << 64)
        | (words[4 * r + 2] << 32)
        | words[4 * r + 3]
        for r in range(_ROUNDS + 1)
    ]


#: Decryption round-table position that sends byte i = 4*j + b back to
#: its own column j, undoing the InvShiftRows folded into the table.
_UNSHIFT = [4 * ((i // 4 - i % 4) % 4) + i % 4 for i in range(BLOCK_SIZE)]


def _inverse_round_keys(enc: list[int]) -> list[int]:
    """Round keys for the equivalent inverse cipher (FIPS 197 §5.3.5).

    Decryption consumes the encryption round keys in reverse order, with
    InvMixColumns applied to the middle ones. The decryption round tables
    apply InvMixColumns after InvSubBytes, so each key byte goes in
    through the forward S-box.
    """
    rounds = _tables(False)[0]
    dec = [enc[_ROUNDS]]
    for k in reversed(enc[1:_ROUNDS]):
        mixed = 0
        for i, position in enumerate(_UNSHIFT):
            mixed ^= rounds[position][SBOX[(k >> (120 - 8 * i)) & 255]]
        dec.append(mixed)
    dec.append(enc[0])
    return dec


class AES128:
    """AES with a 128-bit key operating on single 16-byte blocks.

    >>> cipher = AES128(bytes(16))
    >>> block = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(block) == bytes(16)
    True
    """

    __slots__ = ("_enc", "_dec")

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AES-128 key must be 16 bytes, got {len(key)}")
        round_keys = _expand_key(key)
        self._enc = (_tables(True), round_keys)
        self._dec = (_tables(False), _inverse_round_keys(round_keys))

    def encrypt_block_int(self, block: int) -> int:
        """Encrypt one block given (and returned) as a 128-bit integer."""
        return _crypt((block,), *self._enc)[0]

    def decrypt_block_int(self, block: int) -> int:
        """Decrypt one block given (and returned) as a 128-bit integer."""
        return _crypt((block,), *self._dec)[0]

    def encrypt_blocks_int(self, blocks: Iterable[int]) -> list[int]:
        """Encrypt an iterable of 128-bit integer blocks in one pass."""
        return _crypt(blocks, *self._enc)

    def decrypt_blocks_int(self, blocks: Iterable[int]) -> list[int]:
        """Decrypt an iterable of 128-bit integer blocks in one pass."""
        return _crypt(blocks, *self._dec)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        return _bytes_op(block, self._enc)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        return _bytes_op(block, self._dec)


def _bytes_op(block: bytes, direction) -> bytes:
    if len(block) != BLOCK_SIZE:
        raise CryptoError(f"block must be 16 bytes, got {len(block)}")
    x = _crypt((int.from_bytes(block, "big"),), *direction)[0]
    return x.to_bytes(BLOCK_SIZE, "big")
