"""Per-connection encryption sessions.

A :class:`Session` turns (nonce, payload) messages into sealed datagrams and
back. The wire layout of a sealed datagram is::

    8 bytes   nonce (direction bit | 63-bit sequence number), cleartext
    N+16      OCB ciphertext of the payload, including the 16-byte tag

The cipher behind every session is chosen once, at import: OpenSSL's OCB3
(``cryptography``'s ``AESOCB3``) when the ``cryptography`` package
imports, as upstream Mosh can build against OpenSSL's OCB, and otherwise
the from-scratch reference cipher :class:`~repro.crypto.ocb.OCBCipher`.
Both take the 12-byte nonce ``OCB_NONCE_PREFIX + wire nonce`` and produce
byte-identical datagrams (the test suite checks them against each other
and against the RFC 7253 vectors); ``SessionCipher`` is the class in
use.

Because every datagram is an idempotent state diff, SSP needs no replay
cache for *correctness* (§2.2): replayed packets re-apply a diff the
receiver has already applied, which is a no-op, and the transport layer
ignores stale sequence numbers for roaming purposes. The session still
keeps a per-direction sliding replay window so that datagrams re-using an
already-seen sequence number are counted and dropped
(:class:`~repro.errors.ReplayError`) rather than silently re-processed —
integrity anomalies must be observable, as the Terrapin attack on SSH
demonstrated. The window is far wider than any realistic reordering, so
jittered links never trip it.

:class:`NullSession` implements the same interface with no cryptography.
It is an explicit opt-in (``--no-crypto`` in the trace-replay CLI,
``encrypt=False`` on in-process sessions) kept for debugging and for
isolating crypto cost in benchmarks; every harness defaults to real
AES-128-OCB, as the paper's protocol requires, and real-UDP sessions
always encrypt.

Both session types keep :class:`CryptoStats`: per-session counts
(datagrams/bytes sealed and unsealed, authentication failures, replay
drops) plus always-on seal/unseal latency histograms in microseconds.
When the transport pump wires a session to its reactor, the stats take
the registry's ``crypto.*`` totals and role-prefixed histograms, and
every seal or unseal counts into them where it happens — a forged
datagram that never wakes its session is still in the totals at once.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

from repro.crypto.keys import OCB_NONCE_PREFIX, Base64Key, Nonce
from repro.crypto.ocb import TAG_LEN, OCBCipher
from repro.errors import AuthenticationError, CryptoError, ReplayError
from repro.obs.registry import Counter, Histogram, MetricsRegistry

try:
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESOCB3 as SessionCipher
except ImportError:
    SessionCipher = OCBCipher
    _TAG_ERRORS: tuple = (AuthenticationError,)
else:
    # Either cipher may sit behind a session (the differential tests hold
    # one of each), so both tag-failure types are caught.
    _TAG_ERRORS = (InvalidTag, AuthenticationError)

_NONCE_WIRE_LEN = 8

#: Largest payload a session will seal; mirrors Mosh's receive buffer bound.
MAX_PAYLOAD_LEN = 64 * 1024

#: Sliding replay-window width, in sequence numbers, per direction. Far
#: wider than SSP's in-flight budget (about one instruction per RTT), so
#: only genuine duplicates or ancient replays can land outside it.
REPLAY_WINDOW = 1024


class Message(NamedTuple):
    """A (nonce, payload) pair, the unit the datagram layer encrypts."""

    nonce: Nonce
    text: bytes


class CryptoStats:
    """One session's crypto counts and seal/unseal latency histograms.

    The counts are plain per-session numbers (the integrity summaries
    read them). Until :meth:`bind_registry` the histograms and
    reactor-wide totals are free-standing; once bound, each ``note_*`` call counts into this
    session, the registry's ``crypto.*`` totals, and the histograms.
    """

    __slots__ = (
        "datagrams_sealed",
        "bytes_sealed",
        "datagrams_unsealed",
        "bytes_unsealed",
        "auth_failures",
        "replay_drops",
        "seal_us",
        "unseal_us",
        "last_seal_us",
        "last_unseal_us",
        "_sealed",
        "_bytes_sealed",
        "_unsealed",
        "_bytes_unsealed",
        "_auth_failures",
        "_replay_drops",
    )

    def __init__(self) -> None:
        self.datagrams_sealed = 0
        self.bytes_sealed = 0
        self.datagrams_unsealed = 0
        self.bytes_unsealed = 0
        self.auth_failures = 0
        self.replay_drops = 0
        # Wall-clock cost of each seal/unseal in microseconds (CPU cost,
        # deliberately wall-time even on simulated-clock sessions).
        self.seal_us = Histogram("crypto.seal_us", unit="us")
        self.unseal_us = Histogram("crypto.unseal_us", unit="us")
        # Most recent per-datagram cost, read by the causal tracer to
        # carve crypto CPU out of a keystroke's stage timeline. Plain
        # floats, always maintained — the histograms above gate on the
        # global observability switch.
        self.last_seal_us = 0.0
        self.last_unseal_us = 0.0
        self._take_totals(Counter)

    def bind_registry(self, registry: MetricsRegistry, prefix: str) -> None:
        """Count into ``registry``: reactor-wide ``crypto.*`` totals and
        ``{prefix}.crypto.seal_us``/``unseal_us`` histograms."""
        self.seal_us = registry.histogram(f"{prefix}.crypto.seal_us", unit="us")
        self.unseal_us = registry.histogram(f"{prefix}.crypto.unseal_us", unit="us")
        self._take_totals(registry.counter)

    def _take_totals(self, make) -> None:
        self._sealed = make("crypto.datagrams_sealed")
        self._bytes_sealed = make("crypto.bytes_sealed")
        self._unsealed = make("crypto.datagrams_unsealed")
        self._bytes_unsealed = make("crypto.bytes_unsealed")
        self._auth_failures = make("crypto.auth_failures")
        self._replay_drops = make("crypto.replay_drops")

    def note_seal(self, nbytes: int, elapsed_us: float) -> None:
        """One payload of ``nbytes`` sealed in ``elapsed_us``."""
        self.last_seal_us = elapsed_us
        self.seal_us.record(elapsed_us)
        self.datagrams_sealed += 1
        self.bytes_sealed += nbytes
        self._sealed.value += 1
        self._bytes_sealed.value += nbytes

    def note_auth_failure(self) -> None:
        """One inbound datagram failed tag verification."""
        self.auth_failures += 1
        self._auth_failures.value += 1


class _ReplayWindow:
    """Per-direction sliding bitmap over authenticated sequence numbers."""

    __slots__ = ("highest", "mask")

    def __init__(self) -> None:
        self.highest = -1
        self.mask = 0  # bit i set <=> seq (highest - i) was seen

    def note(self, seq: int) -> bool:
        """Record ``seq``; returns False if it is a replay (drop it)."""
        if seq > self.highest:
            shift = seq - self.highest
            # Shift only what stays in the window: a forged jump of 2**62
            # must not allocate a 2**62-bit integer.
            if shift >= REPLAY_WINDOW:
                self.mask = 1
            else:
                self.mask = ((self.mask << shift) | 1) & ((1 << REPLAY_WINDOW) - 1)
            self.highest = seq
            return True
        offset = self.highest - seq
        if offset >= REPLAY_WINDOW:
            return False  # too old to verify uniqueness: treat as replayed
        bit = 1 << offset
        if self.mask & bit:
            return False
        self.mask |= bit
        return True


class Session:
    """Seals and unseals datagrams with AES-128-OCB under one shared key."""

    def __init__(self, key: Base64Key) -> None:
        self._key = key
        self._cipher = SessionCipher(key.key)
        self.stats = CryptoStats()
        # One replay window per direction bit: an endpoint normally
        # decrypts only its peer's direction, but reflected datagrams are
        # filtered *after* decryption and must not pollute the window.
        self._replay = (_ReplayWindow(), _ReplayWindow())

    @property
    def key(self) -> Base64Key:
        return self._key

    def encrypt(self, message: Message) -> bytes:
        """Seal a message into wire bytes."""
        text = message.text
        if len(text) > MAX_PAYLOAD_LEN:
            raise CryptoError(
                f"payload of {len(text)} bytes exceeds "
                f"{MAX_PAYLOAD_LEN}-byte bound"
            )
        wire = message.nonce.wire()
        t0 = perf_counter()
        sealed = self._cipher.encrypt(OCB_NONCE_PREFIX + wire, text, None)
        self.stats.note_seal(len(text), (perf_counter() - t0) * 1e6)
        return wire + sealed

    def decrypt(self, data) -> Message:
        """Unseal wire bytes (``bytes`` or a ``memoryview``); raises
        AuthenticationError on tampering and ReplayError on an authentic
        but sequence-reusing datagram."""
        if len(data) < _NONCE_WIRE_LEN + TAG_LEN:
            raise CryptoError(f"datagram too short to unseal: {len(data)} bytes")
        # The 12-byte OCB nonce is built straight from the wire header
        # rather than re-serializing a parsed Nonce.
        wire = bytes(data[:_NONCE_WIRE_LEN])
        t0 = perf_counter()
        try:
            text = self._cipher.decrypt(
                OCB_NONCE_PREFIX + wire, data[_NONCE_WIRE_LEN:], None
            )
        except _TAG_ERRORS:
            self.stats.note_auth_failure()
            raise AuthenticationError("OCB tag verification failed") from None
        return _admit(self, wire, text, (perf_counter() - t0) * 1e6)


class NullSession:
    """Plaintext stand-in for :class:`Session` (explicit opt-in only).

    Keeps the exact wire framing (8-byte nonce header) but stores the
    payload unencrypted with a 16-byte zero "tag" so datagram sizes match
    the encrypted case, preserving bandwidth behaviour in simulations.
    The replay window is kept too, so integrity counters behave the same
    in plaintext debugging runs (minus ``auth_failures``, which only real
    authentication can raise).

    Simulation harnesses default to real encryption; reach for this only
    via their explicit plaintext switches (``--no-crypto`` /
    ``encrypt=False``) when isolating crypto cost or debugging wire
    contents.
    """

    def __init__(self, key: Base64Key | None = None) -> None:
        self._key = key or Base64Key(bytes(16))
        self.stats = CryptoStats()
        self._replay = (_ReplayWindow(), _ReplayWindow())

    @property
    def key(self) -> Base64Key:
        return self._key

    def encrypt(self, message: Message) -> bytes:
        if len(message.text) > MAX_PAYLOAD_LEN:
            raise CryptoError(
                f"payload of {len(message.text)} bytes exceeds "
                f"{MAX_PAYLOAD_LEN}-byte bound"
            )
        t0 = perf_counter()
        wire = message.nonce.wire() + message.text + bytes(TAG_LEN)
        self.stats.note_seal(len(message.text), (perf_counter() - t0) * 1e6)
        return wire

    def decrypt(self, data) -> Message:
        if len(data) < _NONCE_WIRE_LEN + TAG_LEN:
            raise CryptoError(f"datagram too short to unseal: {len(data)} bytes")
        t0 = perf_counter()
        # ``bytes()`` both normalizes a memoryview input (the zero-copy
        # receive path hands views into reusable buffers) and detaches
        # the retained Message payload from the caller's buffer.
        wire = bytes(data[:_NONCE_WIRE_LEN])
        text = bytes(data[_NONCE_WIRE_LEN:-TAG_LEN])
        return _admit(self, wire, text, (perf_counter() - t0) * 1e6)


def _admit(session, wire: bytes, text: bytes, elapsed_us: float) -> Message:
    """Count one authentic unseal and return its :class:`Message`; raise a
    counted :class:`ReplayError` if the replay window has already seen its
    sequence number."""
    stats = session.stats
    stats.last_unseal_us = elapsed_us
    stats.unseal_us.record(elapsed_us)
    nonce = Nonce.from_wire(wire)
    if not session._replay[nonce.direction].note(nonce.seq):
        stats.replay_drops += 1
        stats._replay_drops.value += 1
        raise ReplayError(
            f"replayed sequence number {nonce.seq} "
            f"(direction {nonce.direction})"
        )
    stats.datagrams_unsealed += 1
    stats.bytes_unsealed += len(text)
    stats._unsealed.value += 1
    stats._bytes_unsealed.value += len(text)
    return Message(nonce, text)


# ----------------------------------------------------------------------
# Per-tick entry points of the wire batchers
# ----------------------------------------------------------------------


def seal_many(pairs) -> list[bytes]:
    """Seal ``[(session, Message), ...]``, one ``encrypt`` per pair.

    The wire batcher seals a whole tick's datagrams through this one call;
    bytes, counters and histograms are those of the per-pair calls.
    """
    return [session.encrypt(message) for session, message in pairs]


def unseal_many(pairs) -> list:
    """Unseal ``[(session, raw), ...]``, one ``decrypt`` per pair.

    ``raw`` may be ``bytes`` or a ``memoryview`` into a reusable receive
    buffer: every returned payload is a fresh ``bytes``. Each slot holds
    the :class:`Message`, or the :class:`CryptoError` ``decrypt`` raised
    *as a value*, so one forged datagram cannot abort its batchmates.
    Stats and replay windows move exactly as under per-datagram
    ``decrypt``.
    """
    out: list = []
    for session, data in pairs:
        try:
            out.append(session.decrypt(data))
        except CryptoError as exc:
            out.append(exc)
    return out
