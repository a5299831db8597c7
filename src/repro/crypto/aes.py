"""AES-128 block cipher, implemented from scratch (FIPS 197).

This is a table-based implementation: the S-box is derived from the
definition (multiplicative inverse in GF(2^8) followed by the affine map),
and the round function uses lookup tables so a block encryption is a
handful of table lookups and XORs per round. It is the block cipher under
the reference OCB mode (:mod:`repro.crypto.ocb`), which sessions fall back
to when OpenSSL's OCB3 (through the ``cryptography`` package) is not
importable, and which the test suite uses as the differential oracle for
the OpenSSL backend.

Two kernels share the same key schedule:

* the classic four-table 32-bit-word form behind ``encrypt_block`` /
  ``decrypt_block`` (bytes in, bytes out, one block at a time);
* an integer-domain batch kernel (``encrypt_blocks_int`` /
  ``decrypt_blocks_int``) that treats each block as one 128-bit int and
  runs the whole round function through per-byte tables whose entries are
  full 128-bit column contributions, so a round is a single XOR chain.
  The batch form never converts between bytes and ints inside the loop;
  its unrolled source is exec-compiled once per process and specialized
  to each key by rebinding the round keys and tables as default-argument
  locals (see ``_kernel_codes`` / ``_bind_int_kernels``); the OCB
  datagram path (:mod:`repro.crypto.ocb`) runs every datagram's blocks
  through it in one call.

The 128-bit tables are derived lazily on first use (~0.5 MB per
direction, a few milliseconds) and are shared by every key: round keys
enter the kernel as eleven 128-bit constants, not as table contents.

Only the forward cipher and its inverse on 16-byte blocks are exposed;
modes of operation live in :mod:`repro.crypto.ocb`.
"""

from __future__ import annotations

from types import FunctionType
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


def _build_enc_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """T-tables combining SubBytes, ShiftRows, and MixColumns."""
    t0 = [0] * 256
    t1 = [0] * 256
    t2 = [0] * 256
    t3 = [0] * 256
    for value in range(256):
        s = SBOX[value]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        t0[value] = word
        t1[value] = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
        t2[value] = ((word >> 16) | (word << 16)) & 0xFFFFFFFF
        t3[value] = ((word >> 24) | (word << 8)) & 0xFFFFFFFF
    return t0, t1, t2, t3


def _build_dec_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """Inverse T-tables (InvSubBytes + InvShiftRows + InvMixColumns)."""
    d0 = [0] * 256
    d1 = [0] * 256
    d2 = [0] * 256
    d3 = [0] * 256
    for value in range(256):
        s = INV_SBOX[value]
        se = _gf_mul(s, 0x0E)
        s9 = _gf_mul(s, 0x09)
        sd = _gf_mul(s, 0x0D)
        sb = _gf_mul(s, 0x0B)
        word = (se << 24) | (s9 << 16) | (sd << 8) | sb
        d0[value] = word
        d1[value] = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
        d2[value] = ((word >> 16) | (word << 16)) & 0xFFFFFFFF
        d3[value] = ((word >> 24) | (word << 8)) & 0xFFFFFFFF
    return d0, d1, d2, d3


_T0, _T1, _T2, _T3 = _build_enc_tables()
_D0, _D1, _D2, _D3 = _build_dec_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


# --------------------------------------------------------------------------
# Integer-domain batch kernel tables.
#
# A block is one 128-bit int with byte 0 (the first wire byte) in the most
# significant position, i.e. the concatenation of the four big-endian state
# words.  For input byte position i = 4*a + b (word a, byte b), the round
# function routes its T-table contribution to output word j:
#
#   encryption: j = (a - b) mod 4      (ShiftRows rotates row b left by b)
#   decryption: j = (a + b) mod 4      (InvShiftRows rotates right)
#
# so a 256-entry table per byte position holds T_b[v] pre-shifted into the
# output word's bit range, entries being full 128-bit ints: one XOR chain
# of 16 lookups produces the whole next state, with no per-word packing.
# The final round has no MixColumns and uses plain S-box tables with the
# output byte placed at word j, byte b.
#
# The 32 tables total ~0.5 MB per direction, small enough to stay
# cache-resident under a real interleaved workload (fusing byte pairs into
# 16-bit-indexed tables halves the lookups but needs ~25 MB per direction
# and loses to cache misses the moment inputs actually vary).  They are
# key-independent — round keys are XORed in as eleven packed 128-bit
# constants — shared by every AES128 instance, and built lazily on first
# use in a few milliseconds.
# --------------------------------------------------------------------------

_INT_TABLES: dict[str, tuple[list[list[int]], list[list[int]]]] = {}


def _build_int_tables(direction: str) -> tuple[list[list[int]], list[list[int]]]:
    if direction == "enc":
        word_tables = (_T0, _T1, _T2, _T3)
        sbox = SBOX
        sign = -1
    else:
        word_tables = (_D0, _D1, _D2, _D3)
        sbox = INV_SBOX
        sign = 1
    contrib: list[list[int]] = []
    final: list[list[int]] = []
    for i in range(BLOCK_SIZE):
        a, b = divmod(i, 4)
        word_shift = 96 - 32 * ((a + sign * b) % 4)
        table = word_tables[b]
        contrib.append([table[v] << word_shift for v in range(256)])
        byte_shift = word_shift + (24 - 8 * b)
        final.append([sbox[v] << byte_shift for v in range(256)])
    return contrib, final


def _int_tables(direction: str) -> tuple[list[list[int]], list[list[int]]]:
    tables = _INT_TABLES.get(direction)
    if tables is None:
        tables = _INT_TABLES[direction] = _build_int_tables(direction)
    return tables


def _lookup_chain(prefix: str, tail: str) -> str:
    """Source for one round's 16-lookup XOR chain over state ``x``."""
    terms = [f"{prefix}0[x >> 120]"]
    terms += [f"{prefix}{i}[(x >> {120 - 8 * i}) & 255]" for i in range(1, 15)]
    terms.append(f"{prefix}15[x & 255]")
    return " ^ ".join(terms) + f" ^ {tail}"


_KERNEL_CODES: tuple | None = None

#: Shared (empty) globals for kernel instances; every name they touch is a
#: parameter default, so they never fall back to a global lookup.
_KERNEL_GLOBALS: dict = {}


def _kernel_codes() -> tuple:
    """Code objects for the (many, one) kernels, compiled once per process.

    The generated functions fully unroll the round loop and take the 32
    contribution tables *and* the eleven packed round keys as trailing
    default arguments, so every name in the hot chain is a fast local. A
    datagram workload calls the kernel once or twice per packet with only
    a few blocks, so the fixed per-call cost matters as much as the
    per-block cost; the single-block entry point skips list construction
    entirely. Because the key material rides in ``__defaults__`` rather
    than in the bytecode, specializing to a key is a ~1 µs
    :class:`types.FunctionType` rebind (see :func:`_bind_int_kernels`)
    instead of a per-key multi-millisecond compile — short-lived sessions
    with fresh keys never pay a compilation tax.
    """
    global _KERNEL_CODES
    if _KERNEL_CODES is None:
        params = ", ".join(
            [f"u{i}=0" for i in range(BLOCK_SIZE)]
            + [f"f{i}=0" for i in range(BLOCK_SIZE)]
            + [f"k{r}=0" for r in range(_ROUNDS + 1)]
        )
        rounds = "\n".join(
            f"        x = {_lookup_chain('u', f'k{r}')}"
            for r in range(1, _ROUNDS)
        )
        rounds_one = rounds.replace("        ", "    ")
        src = f"""
def _many(blocks, {params}):
    out = []
    append = out.append
    for x in blocks:
        x ^= k0
{rounds}
        append({_lookup_chain("f", f"k{_ROUNDS}")})
    return out

def _one(x, {params}):
    x ^= k0
{rounds_one}
    return {_lookup_chain("f", f"k{_ROUNDS}")}
"""
        namespace: dict = {}
        exec(src, namespace)  # noqa: S102 — source is generated above, no inputs
        _KERNEL_CODES = (namespace["_many"].__code__, namespace["_one"].__code__)
    return _KERNEL_CODES


def _bind_int_kernels(rk, round_tables, final_tables):
    """Instantiate the shared kernel code for one key schedule."""
    many_code, one_code = _kernel_codes()
    defaults = (*round_tables, *final_tables, *rk)
    return (
        FunctionType(many_code, _KERNEL_GLOBALS, "_many", defaults),
        FunctionType(one_code, _KERNEL_GLOBALS, "_one", defaults),
    )


class AES128:
    """AES with a 128-bit key operating on single 16-byte blocks.

    >>> cipher = AES128(bytes(16))
    >>> block = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(block) == bytes(16)
    True
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._enc_round_keys = self._expand_key(key)
        self._dec_round_keys = self._invert_key_schedule(self._enc_round_keys)
        self._rk128_enc = self._pack_round_keys(self._enc_round_keys)
        self._rk128_dec = self._pack_round_keys(self._dec_round_keys)
        self._enc_kernels: tuple | None = None
        self._dec_kernels: tuple | None = None

    @staticmethod
    def _pack_round_keys(words: list[int]) -> tuple[int, ...]:
        """Eleven 128-bit round-key constants for the integer kernel."""
        return tuple(
            (words[4 * r] << 96)
            | (words[4 * r + 1] << 64)
            | (words[4 * r + 2] << 32)
            | words[4 * r + 3]
            for r in range(_ROUNDS + 1)
        )

    def _int_kernels(self, encrypting: bool) -> tuple:
        """The (many, one) compiled kernels for this key, built lazily."""
        kernels = self._enc_kernels if encrypting else self._dec_kernels
        if kernels is None:
            direction = "enc" if encrypting else "dec"
            rk = self._rk128_enc if encrypting else self._rk128_dec
            kernels = _bind_int_kernels(rk, *_int_tables(direction))
            if encrypting:
                self._enc_kernels = kernels
            else:
                self._dec_kernels = kernels
        return kernels

    def encrypt_block_int(self, block: int) -> int:
        """Encrypt one block given (and returned) as a 128-bit integer."""
        return self._int_kernels(True)[1](block)

    def decrypt_block_int(self, block: int) -> int:
        """Decrypt one block given (and returned) as a 128-bit integer."""
        return self._int_kernels(False)[1](block)

    def encrypt_blocks_int(self, blocks: Iterable[int]) -> list[int]:
        """Encrypt an iterable of 128-bit integer blocks in one pass."""
        return self._int_kernels(True)[0](blocks)

    def decrypt_blocks_int(self, blocks: Iterable[int]) -> list[int]:
        """Decrypt an iterable of 128-bit integer blocks in one pass."""
        return self._int_kernels(False)[0](blocks)

    @staticmethod
    def _expand_key(key: bytes) -> list[int]:
        """FIPS 197 key expansion: 44 32-bit round-key words."""
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
        return words

    @staticmethod
    def _invert_key_schedule(enc: list[int]) -> list[int]:
        """Round keys for the equivalent inverse cipher.

        Decryption rounds consume the encryption round keys in reverse
        order, with InvMixColumns applied to the middle rounds.
        """
        dec: list[int] = []
        for round_index in range(_ROUNDS, -1, -1):
            for col in range(4):
                word = enc[4 * round_index + col]
                if 0 < round_index < _ROUNDS:
                    # InvMixColumns on the round-key word, done via the
                    # decryption tables composed with the forward S-box.
                    word = (
                        _D0[SBOX[(word >> 24) & 0xFF]]
                        ^ _D1[SBOX[(word >> 16) & 0xFF]]
                        ^ _D2[SBOX[(word >> 8) & 0xFF]]
                        ^ _D3[SBOX[word & 0xFF]]
                    )
                dec.append(word)
        return dec

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        rk = self._enc_round_keys
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        k = 4
        for _ in range(_ROUNDS - 1):
            n0 = (
                t0[(s0 >> 24) & 0xFF]
                ^ t1[(s1 >> 16) & 0xFF]
                ^ t2[(s2 >> 8) & 0xFF]
                ^ t3[s3 & 0xFF]
                ^ rk[k]
            )
            n1 = (
                t0[(s1 >> 24) & 0xFF]
                ^ t1[(s2 >> 16) & 0xFF]
                ^ t2[(s3 >> 8) & 0xFF]
                ^ t3[s0 & 0xFF]
                ^ rk[k + 1]
            )
            n2 = (
                t0[(s2 >> 24) & 0xFF]
                ^ t1[(s3 >> 16) & 0xFF]
                ^ t2[(s0 >> 8) & 0xFF]
                ^ t3[s1 & 0xFF]
                ^ rk[k + 2]
            )
            n3 = (
                t0[(s3 >> 24) & 0xFF]
                ^ t1[(s0 >> 16) & 0xFF]
                ^ t2[(s1 >> 8) & 0xFF]
                ^ t3[s2 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = n0, n1, n2, n3
            k += 4
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        sb = SBOX
        o0 = (
            (sb[(s0 >> 24) & 0xFF] << 24)
            | (sb[(s1 >> 16) & 0xFF] << 16)
            | (sb[(s2 >> 8) & 0xFF] << 8)
            | sb[s3 & 0xFF]
        ) ^ rk[k]
        o1 = (
            (sb[(s1 >> 24) & 0xFF] << 24)
            | (sb[(s2 >> 16) & 0xFF] << 16)
            | (sb[(s3 >> 8) & 0xFF] << 8)
            | sb[s0 & 0xFF]
        ) ^ rk[k + 1]
        o2 = (
            (sb[(s2 >> 24) & 0xFF] << 24)
            | (sb[(s3 >> 16) & 0xFF] << 16)
            | (sb[(s0 >> 8) & 0xFF] << 8)
            | sb[s1 & 0xFF]
        ) ^ rk[k + 2]
        o3 = (
            (sb[(s3 >> 24) & 0xFF] << 24)
            | (sb[(s0 >> 16) & 0xFF] << 16)
            | (sb[(s1 >> 8) & 0xFF] << 8)
            | sb[s2 & 0xFF]
        ) ^ rk[k + 3]
        return b"".join(w.to_bytes(4, "big") for w in (o0, o1, o2, o3))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        rk = self._dec_round_keys
        d0, d1, d2, d3 = _D0, _D1, _D2, _D3
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        k = 4
        for _ in range(_ROUNDS - 1):
            n0 = (
                d0[(s0 >> 24) & 0xFF]
                ^ d1[(s3 >> 16) & 0xFF]
                ^ d2[(s2 >> 8) & 0xFF]
                ^ d3[s1 & 0xFF]
                ^ rk[k]
            )
            n1 = (
                d0[(s1 >> 24) & 0xFF]
                ^ d1[(s0 >> 16) & 0xFF]
                ^ d2[(s3 >> 8) & 0xFF]
                ^ d3[s2 & 0xFF]
                ^ rk[k + 1]
            )
            n2 = (
                d0[(s2 >> 24) & 0xFF]
                ^ d1[(s1 >> 16) & 0xFF]
                ^ d2[(s0 >> 8) & 0xFF]
                ^ d3[s3 & 0xFF]
                ^ rk[k + 2]
            )
            n3 = (
                d0[(s3 >> 24) & 0xFF]
                ^ d1[(s2 >> 16) & 0xFF]
                ^ d2[(s1 >> 8) & 0xFF]
                ^ d3[s0 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = n0, n1, n2, n3
            k += 4
        isb = INV_SBOX
        o0 = (
            (isb[(s0 >> 24) & 0xFF] << 24)
            | (isb[(s3 >> 16) & 0xFF] << 16)
            | (isb[(s2 >> 8) & 0xFF] << 8)
            | isb[s1 & 0xFF]
        ) ^ rk[k]
        o1 = (
            (isb[(s1 >> 24) & 0xFF] << 24)
            | (isb[(s0 >> 16) & 0xFF] << 16)
            | (isb[(s3 >> 8) & 0xFF] << 8)
            | isb[s2 & 0xFF]
        ) ^ rk[k + 1]
        o2 = (
            (isb[(s2 >> 24) & 0xFF] << 24)
            | (isb[(s1 >> 16) & 0xFF] << 16)
            | (isb[(s0 >> 8) & 0xFF] << 8)
            | isb[s3 & 0xFF]
        ) ^ rk[k + 2]
        o3 = (
            (isb[(s3 >> 24) & 0xFF] << 24)
            | (isb[(s2 >> 16) & 0xFF] << 16)
            | (isb[(s1 >> 8) & 0xFF] << 8)
            | isb[s0 & 0xFF]
        ) ^ rk[k + 3]
        return b"".join(w.to_bytes(4, "big") for w in (o0, o1, o2, o3))
