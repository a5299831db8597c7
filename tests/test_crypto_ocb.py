"""OCB (RFC 7253) against the published vectors, plus security properties.

The from-scratch cipher is the oracle for the OpenSSL backend sessions
use when ``cryptography`` imports: both must match the RFC vectors and
each other byte for byte. The OpenSSL cases skip without ``cryptography``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.ocb as ocb_module
from repro.crypto.ocb import OCBCipher
from repro.errors import AuthenticationError, CryptoError

try:
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESOCB3
except ImportError:
    AESOCB3 = None

needs_openssl = pytest.mark.skipif(
    AESOCB3 is None, reason="cryptography not installed"
)

RFC_KEY = bytes.fromhex("000102030405060708090A0B0C0D0E0F")

# The 40-byte ramp 00..27 that Appendix A slices P and A from.
_RAMP = bytes.fromhex(
    "000102030405060708090A0B0C0D0E0F"
    "101112131415161718191A1B1C1D1E1F"
    "2021222324252627"
)

# The complete RFC 7253 Appendix A named-vector set for AES-128-OCB:
# (nonce, associated data, plaintext, expected ciphertext||tag).
# P and A step through lengths 0, 8, 16, 24, 32, 40 in every
# with-AD / AD-only / P-only combination the RFC publishes.
RFC_VECTORS = [
    (
        "BBAA99887766554433221100",
        "",
        "",
        "785407BFFFC8AD9EDCC5520AC9111EE6",
    ),
    (
        "BBAA99887766554433221101",
        "0001020304050607",
        "0001020304050607",
        "6820B3657B6F615A5725BDA0D3B4EB3A257C9AF1F8F03009",
    ),
    (
        "BBAA99887766554433221102",
        "0001020304050607",
        "",
        "81017F8203F081277152FADE694A0A00",
    ),
    (
        "BBAA99887766554433221103",
        "",
        "0001020304050607",
        "45DD69F8F5AAE72414054CD1F35D82760B2CD00D2F99BFA9",
    ),
    (
        "BBAA99887766554433221104",
        _RAMP[:16].hex(),
        _RAMP[:16].hex(),
        "571D535B60B277188BE5147170A9A22C3AD7A4FF3835B8C5701C1CCEC8FC3358",
    ),
    (
        "BBAA99887766554433221105",
        _RAMP[:16].hex(),
        "",
        "8CF761B6902EF764462AD86498CA6B97",
    ),
    (
        "BBAA99887766554433221106",
        "",
        _RAMP[:16].hex(),
        "5CE88EC2E0692706A915C00AEB8B2396F40E1C743F52436BDF06D8FA1ECA343D",
    ),
    (
        "BBAA99887766554433221107",
        _RAMP[:24].hex(),
        _RAMP[:24].hex(),
        "1CA2207308C87C010756104D8840CE1952F09673A448A122"
        "C92C62241051F57356D7F3C90BB0E07F",
    ),
    (
        "BBAA99887766554433221108",
        _RAMP[:24].hex(),
        "",
        "6DC225A071FC1B9F7C69F93B0F1E10DE",
    ),
    (
        "BBAA99887766554433221109",
        "",
        _RAMP[:24].hex(),
        "221BD0DE7FA6FE993ECCD769460A0AF2D6CDED0C395B1C3C"
        "E725F32494B9F914D85C0B1EB38357FF",
    ),
    (
        "BBAA9988776655443322110A",
        _RAMP[:32].hex(),
        _RAMP[:32].hex(),
        "BD6F6C496201C69296C11EFD138A467ABD3C707924B964DE"
        "AFFC40319AF5A48540FBBA186C5553C68AD9F592A79A4240",
    ),
    (
        "BBAA9988776655443322110B",
        _RAMP[:32].hex(),
        "",
        "FE80690BEE8A485D11F32965BC9D2A32",
    ),
    (
        "BBAA9988776655443322110C",
        "",
        _RAMP[:32].hex(),
        "2942BFC773BDA23CABC6ACFD9BFD5835BD300F0973792EF4"
        "6040C53F1432BCDFB5E1DDE3BC18A5F840B52E653444D5DF",
    ),
    (
        "BBAA9988776655443322110D",
        _RAMP[:40].hex(),
        _RAMP[:40].hex(),
        "D5CA91748410C1751FF8A2F618255B68A0A12E093FF45460"
        "6E59F9C1D0DDC54B65E8628E568BAD7AED07BA06A4A69483"
        "A7035490C5769E60",
    ),
    (
        "BBAA9988776655443322110E",
        _RAMP[:40].hex(),
        "",
        "C5CD9D1850C141E358649994EE701B68",
    ),
    (
        "BBAA9988776655443322110F",
        "",
        _RAMP[:40].hex(),
        "4412923493C57D5DE0D700F753CCE0D1D2D95060122E9F15"
        "A5DDBFC5787E50B5CC55EE507BCB084E479AD363AC366B95"
        "A98CA5F3000B1479",
    ),
]


class TestRfc7253Vectors:
    @pytest.mark.parametrize("nonce,ad,pt,expected", RFC_VECTORS)
    def test_encrypt(self, nonce, ad, pt, expected):
        cipher = OCBCipher(RFC_KEY)
        out = cipher.encrypt(
            bytes.fromhex(nonce), bytes.fromhex(pt), bytes.fromhex(ad)
        )
        assert out.hex().upper() == expected

    @pytest.mark.parametrize("nonce,ad,pt,expected", RFC_VECTORS)
    def test_decrypt(self, nonce, ad, pt, expected):
        cipher = OCBCipher(RFC_KEY)
        out = cipher.decrypt(
            bytes.fromhex(nonce), bytes.fromhex(expected), bytes.fromhex(ad)
        )
        assert out == bytes.fromhex(pt)

    def test_rfc_iterative_wide_coverage(self):
        """RFC 7253 Appendix A iterative test: all lengths 0..127 blocks.

        The expected constant is published in the RFC for AES-128-OCB with
        a 128-bit tag.
        """
        key = bytes(15) + bytes([128])
        cipher = OCBCipher(key)
        stream = bytearray()
        for i in range(128):
            s = bytes(i)
            stream += cipher.encrypt((3 * i + 1).to_bytes(12, "big"), s, s)
            stream += cipher.encrypt((3 * i + 2).to_bytes(12, "big"), s, b"")
            stream += cipher.encrypt((3 * i + 3).to_bytes(12, "big"), b"", s)
        out = cipher.encrypt((385).to_bytes(12, "big"), b"", bytes(stream))
        assert out.hex().upper() == "67E944D23256C5E0B6C61FA22FDF1EA2"


class TestAuthenticity:
    def test_bit_flip_rejected(self):
        cipher = OCBCipher(RFC_KEY)
        nonce = b"\x00" * 11 + b"\x01"
        ct = bytearray(cipher.encrypt(nonce, b"attack at dawn"))
        for position in range(len(ct)):
            corrupted = bytearray(ct)
            corrupted[position] ^= 0x01
            with pytest.raises(AuthenticationError):
                cipher.decrypt(nonce, bytes(corrupted))

    def test_wrong_nonce_rejected(self):
        cipher = OCBCipher(RFC_KEY)
        ct = cipher.encrypt(b"\x01" * 12, b"hello")
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"\x02" * 12, ct)

    def test_wrong_ad_rejected(self):
        cipher = OCBCipher(RFC_KEY)
        ct = cipher.encrypt(b"\x01" * 12, b"hello", b"header-1")
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"\x01" * 12, ct, b"header-2")

    def test_truncated_ciphertext_rejected(self):
        cipher = OCBCipher(RFC_KEY)
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"\x01" * 12, b"too-short")

    def test_wrong_key_rejected(self):
        ct = OCBCipher(RFC_KEY).encrypt(b"\x01" * 12, b"hello")
        other = OCBCipher(bytes(16))
        with pytest.raises(AuthenticationError):
            other.decrypt(b"\x01" * 12, ct)


class TestNonceValidation:
    def test_empty_nonce_rejected(self):
        cipher = OCBCipher(RFC_KEY)
        with pytest.raises(CryptoError):
            cipher.encrypt(b"", b"data")

    def test_sixteen_byte_nonce_rejected(self):
        cipher = OCBCipher(RFC_KEY)
        with pytest.raises(CryptoError):
            cipher.encrypt(bytes(16), b"data")


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=1, max_size=15),
        plaintext=st.binary(max_size=200),
        ad=st.binary(max_size=64),
    )
    def test_roundtrip(self, key, nonce, plaintext, ad):
        cipher = OCBCipher(key)
        ct = cipher.encrypt(nonce, plaintext, ad)
        assert len(ct) == len(plaintext) + 16
        assert cipher.decrypt(nonce, ct, ad) == plaintext

    def test_ciphertext_looks_random(self):
        cipher = OCBCipher(RFC_KEY)
        pt = bytes(64)
        ct = cipher.encrypt(b"\x01" * 12, pt)[:-16]
        assert ct != pt
        # distinct blocks of identical plaintext encrypt differently
        assert ct[0:16] != ct[16:32]


class TestTamperAcrossBlockBoundaries:
    """Every ciphertext/tag bit matters at 0..3-block payload sizes.

    The seal pipeline switches shape at block boundaries (empty body,
    partial tail, whole blocks, whole blocks + tail), so the tamper sweep
    runs at each size class rather than one arbitrary length.
    """

    SIZES = [0, 1, 15, 16, 17, 31, 32, 33, 47, 48]

    @pytest.mark.parametrize("size", SIZES)
    def test_roundtrip_and_tamper(self, size):
        cipher = OCBCipher(RFC_KEY)
        nonce = size.to_bytes(12, "big")
        pt = bytes((7 * i + size) & 0xFF for i in range(size))
        ad = b"step-%d" % size
        sealed = cipher.encrypt(nonce, pt, ad)
        assert len(sealed) == size + 16
        assert cipher.decrypt(nonce, sealed, ad) == pt
        for position in range(len(sealed)):
            corrupted = bytearray(sealed)
            corrupted[position] ^= 0x01
            with pytest.raises(AuthenticationError):
                cipher.decrypt(nonce, bytes(corrupted), ad)


@needs_openssl
class TestBackendParity:
    """The reference cipher and OpenSSL's OCB3 must seal identically at
    every block-count class a datagram can take, and each must open the
    other's output."""

    PAYLOAD = bytes((5 * i + 3) & 0xFF for i in range(1400))

    @pytest.mark.parametrize("size", [16, 80, 96, 500, 1400, 1407])
    def test_seal_parity(self, size):
        nonce, pt, ad = b"\xAB" * 12, (self.PAYLOAD * 2)[:size], b"hdr"
        reference, openssl = OCBCipher(RFC_KEY), AESOCB3(RFC_KEY)
        sealed = reference.encrypt(nonce, pt, ad)
        assert openssl.encrypt(nonce, pt, ad) == sealed
        assert openssl.decrypt(nonce, sealed, ad) == pt
        assert reference.decrypt(nonce, openssl.encrypt(nonce, pt, ad), ad) == pt

    @pytest.mark.parametrize("nonce,ad,pt,expected", RFC_VECTORS)
    def test_rfc_vectors(self, nonce, ad, pt, expected):
        cipher = AESOCB3(RFC_KEY)
        nonce, ad = bytes.fromhex(nonce), bytes.fromhex(ad)
        out = cipher.encrypt(nonce, bytes.fromhex(pt), ad)
        assert out.hex().upper() == expected
        assert cipher.decrypt(nonce, out, ad) == bytes.fromhex(pt)

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=12, max_size=15),
        plaintext=st.binary(max_size=1500),
        ad=st.binary(max_size=48),
        data=st.data(),
    )
    def test_differential(self, key, nonce, plaintext, ad, data):
        sealed = OCBCipher(key).encrypt(nonce, plaintext, ad)
        assert AESOCB3(key).encrypt(nonce, plaintext, ad) == sealed
        bit = data.draw(st.integers(0, 8 * len(sealed) - 1), label="bit")
        forged = bytearray(sealed)
        forged[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthenticationError):
            OCBCipher(key).decrypt(nonce, bytes(forged), ad)
        with pytest.raises(InvalidTag):
            AESOCB3(key).decrypt(nonce, bytes(forged), ad)


class TestKtopCache:
    """The masked-nonce ktop cache must be a keyed LRU, not one entry.

    Interleaved send/receive nonces (the steady-state SSP pattern: two
    directions, monotonically increasing sequence numbers) must hit the
    cache instead of thrashing a single slot.
    """

    @staticmethod
    def _nonce(direction: int, seq: int) -> bytes:
        return bytes(4) + ((direction << 63) | seq).to_bytes(8, "big")

    def test_interleaved_directions_hit(self):
        cipher = OCBCipher(RFC_KEY)
        # Within one ktop window the bottom 6 nonce bits are masked off,
        # so seq 0..63 in both directions needs only two cache entries.
        for seq in range(32):
            cipher.encrypt(self._nonce(0, seq), b"client->server")
            cipher.encrypt(self._nonce(1, seq), b"server->client")
        assert cipher.ktop_misses == 2
        assert cipher.ktop_hits == 62

    def test_single_entry_design_would_thrash(self):
        # Regression guard for the old single-entry cache: alternating
        # directions must not evict each other.
        cipher = OCBCipher(RFC_KEY)
        cipher.encrypt(self._nonce(0, 0), b"a")
        cipher.encrypt(self._nonce(1, 0), b"b")
        cipher.encrypt(self._nonce(0, 1), b"c")
        cipher.encrypt(self._nonce(1, 1), b"d")
        assert cipher.ktop_hits == 2
        assert len(cipher._ktop_cache) == 2

    def test_lru_eviction_bounds_size(self):
        cipher = OCBCipher(RFC_KEY)
        distinct = ocb_module._KTOP_CACHE_MAX + 4
        for i in range(distinct):
            # Distinct ktop windows: stride 64 so the mask can't merge them.
            cipher.encrypt(self._nonce(0, i * 64), b"x")
        assert len(cipher._ktop_cache) == ocb_module._KTOP_CACHE_MAX
        assert cipher.ktop_misses == distinct

    def test_lru_keeps_recently_used(self):
        cipher = OCBCipher(RFC_KEY)
        hot = self._nonce(0, 0)
        cipher.encrypt(hot, b"seed")
        for i in range(1, ocb_module._KTOP_CACHE_MAX):
            cipher.encrypt(self._nonce(0, i * 64), b"fill")
            cipher.encrypt(hot, b"refresh")  # keep the hot window recent
        # One more distinct window evicts the LRU entry — not the hot one.
        cipher.encrypt(self._nonce(0, 10**6 * 64), b"evict")
        before = cipher.ktop_misses
        cipher.encrypt(hot, b"still cached")
        assert cipher.ktop_misses == before


class TestScheduleCache:
    def test_same_key_shares_one_schedule(self):
        a = OCBCipher(RFC_KEY)
        b = OCBCipher(RFC_KEY)
        assert a._aes is b._aes
        assert a._l_table is b._l_table
        # The shared schedule still produces correct, interoperable output.
        nonce = bytes.fromhex("BBAA99887766554433221100")
        sealed = a.encrypt(nonce, b"payload", b"ad")
        assert b.decrypt(nonce, sealed, b"ad") == b"payload"

    def test_different_keys_do_not_share(self):
        a = OCBCipher(RFC_KEY)
        b = OCBCipher(bytes(16))
        assert a._aes is not b._aes
