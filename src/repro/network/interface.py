"""Shared datagram-endpoint machinery.

Both the real-UDP connection and the simulated-network endpoint perform the
same bookkeeping per §2.2 of the paper:

* prepend an incrementing sequence number and encrypt (via the session);
* stamp each outgoing datagram and echo the peer's most recent timestamp,
  *adjusted by the hold time* so delayed ACKs don't bias RTT samples;
* fold timestamp replies into the RTT estimator;
* on the server, re-target the connection to the source address of any
  authentic datagram with a sequence number greater than any seen before —
  this is the whole roaming mechanism.

Subclasses provide raw transmission (:meth:`_transmit`) and feed inbound
raw datagrams to :meth:`_handle_datagram`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.crypto.keys import DIRECTION_TO_CLIENT, DIRECTION_TO_SERVER, Nonce
from repro.crypto.ocb import TAG_LEN
from repro.crypto.session import Message, NullSession, Session
from repro.errors import CryptoError, NetworkError, ReplayError
from repro.network.packet import (
    PACKET_HEADER,
    TIMESTAMP_NONE,
    encode_conn_id,
    peek_conn_id,
    timestamp16,
    timestamp_diff,
)
from repro.network.rtt import RttEstimator
from repro.obs import registry as _obs
from repro.obs.flight import DIR_C2S, DIR_S2C, FlightRecorder, peek_seq
from repro.obs.registry import Counter, MetricsRegistry


def _peek_fragment(payload: bytes):
    """Lazy proxy for :func:`repro.transport.fragment.peek_fragment`.

    The transport package imports this module, so the reverse import has
    to wait until both packages have finished initializing.
    """
    global _peek_fragment
    from repro.transport.fragment import peek_fragment

    _peek_fragment = peek_fragment
    return peek_fragment(payload)


_pack_header = PACKET_HEADER.pack
_unpack_header = PACKET_HEADER.unpack_from
_HEADER_LEN = PACKET_HEADER.size

#: ``pop_received_rx`` result when nothing arrived (shared, never mutated).
_NOTHING_RECEIVED: tuple = ((), ())

#: Conservative round-trip estimate used until the first RTT sample lands
#: (matches RFC 6298's initial RTO of one second).
DEFAULT_SRTT_MS = 1000.0


class DatagramEndpoint(ABC):
    """One end of an SSP datagram-layer connection."""

    def __init__(
        self,
        session: Session | NullSession,
        is_server: bool,
        mtu: int = 500,
    ) -> None:
        self._session = session
        self._is_server = is_server
        self._direction = (
            DIRECTION_TO_CLIENT if is_server else DIRECTION_TO_SERVER
        )
        self._mtu = mtu
        self._dir_out = DIR_S2C if is_server else DIR_C2S
        self._dir_in = DIR_C2S if is_server else DIR_S2C
        self._next_seq = 0
        self._expected_receiver_seq = 0
        # Mux wire framing: when a connection id is attached, every sent
        # datagram carries the cleartext conn-id header and every inbound
        # datagram must carry the same id.
        self._conn_id: int | None = None
        self._conn_header: bytes | None = None
        #: Inbound datagrams dropped before decryption for bad or
        #: mismatched mux framing (surfaced alongside crypto counters).
        self.framing_drops = 0
        # Reactor-wide totals, free-standing until bind_registry.
        self._datagrams_out = Counter("reactor.datagrams_out")
        self._framing_drops = Counter("network.framing_drops")
        self._rtt = RttEstimator()
        # Peer-timestamp bookkeeping for adjusted timestamp replies.
        self._saved_timestamp: int | None = None
        self._saved_timestamp_received_at: float | None = None
        self._last_heard: float | None = None
        self._remote_addr: Any = None
        self._received_payloads: list[bytes] = []
        # Per-datagram receive context (rx tuples) captured in lockstep
        # with the payload queue — only populated while a causal tracer
        # is attached, so the common path pays one ``is None`` check.
        self._received_rx: list[tuple] = []
        # Per-endpoint traffic counters (sealed datagrams).
        self.datagrams_sent = 0
        self.bytes_sent = 0
        self.datagrams_received = 0
        self.bytes_received = 0
        #: Called after each authentic datagram is queued (event loops use
        #: this to tick the transport immediately instead of polling).
        self.on_datagram: Callable[[float], None] | None = None
        #: Batch-aware variant: ``on_datagram_count(now, n)`` replaces n
        #: consecutive ``on_datagram`` calls when the receive path
        #: coalesces a burst (set by the pump; optional).
        self.on_datagram_count: Callable[[float, int], None] | None = None
        #: Optional wire-level flight recorder; when attached, every
        #: datagram's send, receive, and terminal-fate events are logged.
        self.flight: FlightRecorder | None = None
        #: Per-tick send queue (:class:`~repro.network.batch.WireBatcher`).
        #: When attached, :meth:`send` enqueues instead of sealing inline;
        #: the owner flushes once per tick.
        self.batcher = None
        #: Inbound staging hook (:class:`~repro.network.batch.RxBatcher`
        #: ``.stage``). When set, datagram bodies are staged for a
        #: batched unseal instead of being decrypted inline.
        self.rx_stage: Callable[..., None] | None = None
        #: Optional per-keystroke causal tracer
        #: (:class:`~repro.obs.causal.CausalTracer`). When attached, each
        #: sent datagram's carry context and each authentic arrival's
        #: timestamps/RTT/unseal cost are fed to it, and rx tuples are
        #: queued for the transport to pair with instruction completion.
        self.causal = None

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Count sends and framing drops into the reactor-wide
        ``reactor.datagrams_out`` and ``network.framing_drops``."""
        self._datagrams_out = registry.counter("reactor.datagrams_out")
        self._framing_drops = registry.counter("network.framing_drops")

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------

    @abstractmethod
    def _transmit(self, raw: bytes, now: float) -> None:
        """Put raw sealed bytes on the wire toward ``self._remote_addr``."""

    def transmit_to(self, raw: bytes, addr: Any, now: float) -> None:
        """Transmit toward an explicit address (wire-batcher flush path).

        The batcher captures ``self._remote_addr`` at enqueue time so a
        roam landing mid-tick cannot retarget datagrams already queued.
        Subclasses with addressable transports override this; the default
        falls back to :meth:`_transmit` (single-peer endpoints).
        """
        self._transmit(raw, now)

    # ------------------------------------------------------------------
    # Mux framing
    # ------------------------------------------------------------------

    @property
    def conn_id(self) -> int | None:
        """The session's cleartext connection id, if muxed."""
        return self._conn_id

    def set_conn_id(self, conn_id: int | None) -> None:
        """Attach (or detach) the mux connection id for this session.

        With an id attached, every outgoing datagram gains the conn-id
        header and every inbound datagram must carry the matching id.
        """
        self._conn_id = conn_id
        self._conn_header = (
            encode_conn_id(conn_id) if conn_id is not None else None
        )

    def _unframe(self, raw: bytes, now: float):
        """Strip/validate the mux header; returns the body, or None.

        None means the datagram must be dropped: pre-auth garbage, an
        unframed datagram, or a conn id that does not belong to this
        session. Every such fate is counted and flight-logged — it can
        never raise, whatever bytes the network delivers.
        """
        peeked = peek_conn_id(raw)
        if peeked is not None and peeked[0] == self._conn_id:
            return raw[peeked[1]:]
        self.framing_drops += 1
        self._framing_drops.value += 1
        if self.flight is not None and _obs._enabled:
            if peeked is None:
                self.flight.note_drop(
                    now, self._dir_in, "bad_packet", wire_len=len(raw)
                )
            else:
                self.flight.note_drop(
                    now, self._dir_in, "no_route",
                    seq=peek_seq(raw), wire_len=len(raw),
                )
        return None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self,
        payload: bytes,
        now: float,
        meta: tuple | None = None,
        dlen: int = 0,
    ) -> None:
        """Seal and transmit one transport payload.

        ``meta`` is opaque flight-recorder context from the transport
        sender (the ``meta`` tuple of
        :meth:`~repro.obs.flight.FlightRecorder.note_send`: instruction
        numbers, fragment id/idx/final, diff length); it is logged
        alongside the datagram's wire-level fields. ``dlen`` is the
        length of the state diff the payload carries, which the causal
        tracer reads whether or not a flight recorder is attached.
        """
        if self._remote_addr is None:
            raise NetworkError("no remote address known yet")
        reply = TIMESTAMP_NONE
        if (
            self._saved_timestamp is not None
            and self._saved_timestamp_received_at is not None
        ):
            # Adjust the echoed timestamp by our hold time so the peer's
            # RTT sample excludes our delayed-ACK pause (§2.2, change 2).
            hold = now - self._saved_timestamp_received_at
            reply = (self._saved_timestamp + int(hold)) & 0xFFFF
            self._saved_timestamp = None
            self._saved_timestamp_received_at = None
        seq = self._next_seq
        self._next_seq = seq + 1
        # The direction was validated with the endpoint and the sequence
        # number counts up from 0, so the nonce skips its checks.
        nonce = tuple.__new__(Nonce, (self._direction, seq))
        timestamp = timestamp16(now)
        text = _pack_header(timestamp, reply) + payload
        batcher = self.batcher
        if batcher is not None:
            # Deferred-seal path: nonce/seq/timestamps are fixed here (so
            # ordering and wire bytes match the inline path exactly); the
            # seal and the transmit happen at the tick's batch flush. The
            # sealed length is knowable now, so counters move immediately.
            header = self._conn_header
            wire_len = (
                (len(header) if header is not None else 0)
                + 8 + len(text) + TAG_LEN
            )
            self.datagrams_sent += 1
            self.bytes_sent += wire_len
            self._datagrams_out.value += 1
            batcher.enqueue((
                self, nonce, text, header, self._remote_addr, now,
                meta, seq, timestamp, reply, wire_len,
            ))
            if self.causal is not None:
                # Seal cost is unknowable until the batch flush; charge 0
                # (clients are never batched, so this is a daemon-side
                # safety net, not the common tracer path).
                self.causal.on_send(now, seq, dlen, 0.0)
            return
        raw = self._session.encrypt(Message(nonce, text))
        if self._conn_header is not None:
            raw = self._conn_header + raw
        self.datagrams_sent += 1
        self.bytes_sent += len(raw)
        self._datagrams_out.value += 1
        if self.flight is not None and _obs._enabled:
            self.flight.note_send(
                now, self._dir_out, seq, len(raw), timestamp, reply, meta
            )
        if self.causal is not None:
            self.causal.on_send(
                now, seq, dlen, self._session.stats.last_seal_us
            )
        self._transmit(raw, now)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _handle_datagram(self, raw: bytes, addr: Any, now: float) -> None:
        """Unseal one inbound datagram; drops forgeries (recorded, never
        trusted)."""
        if self._conn_id is not None:
            raw = self._unframe(raw, now)
            if raw is None:
                return
        stage = self.rx_stage
        if stage is not None:
            # Batched-unseal path: park the (possibly zero-copy) body for
            # the tick's flush; :meth:`handle_unsealed` finishes the job.
            stage(self, raw, addr, now)
            return
        try:
            message: Message | CryptoError = self._session.decrypt(raw)
        except CryptoError as exc:
            message = exc
        self.handle_unsealed(message, raw, addr, now)

    def handle_unsealed(
        self,
        message: "Message | CryptoError",
        raw,
        addr: Any,
        now: float,
        notify: bool = True,
    ) -> bool:
        """Post-unseal half of datagram handling (inline and batched).

        ``message`` is the unsealed :class:`Message` or the
        :class:`CryptoError` the unseal raised (batched unsealing returns
        failures as values). ``raw`` is the unframed wire body, used only
        for lengths and drop forensics — nothing from it is retained.
        Returns True when a payload was accepted; with ``notify=False``
        the ``on_datagram`` hook is skipped so a batching caller can
        coalesce (:meth:`notify_datagrams`).
        """
        # The global observability switch gates the hooks here rather
        # than inside note_*, so a disabled recorder also skips the
        # fragment peek and estimator reads that only feed the log.
        flight = self.flight if _obs._enabled else None
        if isinstance(message, CryptoError):
            if isinstance(message, ReplayError):
                # Authentic but sequence-reusing: a duplicated or replayed
                # datagram. Terminal fate, worth a flight-log line.
                if flight is not None:
                    flight.note_drop(
                        now, self._dir_in, "replay",
                        seq=peek_seq(raw), wire_len=len(raw),
                    )
            elif flight is not None:
                flight.note_drop(
                    now, self._dir_in, "auth",
                    seq=peek_seq(raw), wire_len=len(raw),
                )
            return False  # forged or corrupted; never trust it
        nonce = message.nonce
        seq = nonce.seq
        expected_direction = (
            DIRECTION_TO_SERVER if self._is_server else DIRECTION_TO_CLIENT
        )
        if nonce.direction != expected_direction:
            if flight is not None:
                flight.note_drop(
                    now, self._dir_in, "reflect",
                    seq=seq, wire_len=len(raw),
                )
            return False  # reflected packet
        text = message.text
        if len(text) < _HEADER_LEN:
            if flight is not None:
                flight.note_drop(
                    now, self._dir_in, "bad_packet",
                    seq=seq, wire_len=len(raw),
                )
            return False
        timestamp, timestamp_reply = _unpack_header(text)
        payload = text[_HEADER_LEN:]

        # An authentic sequence number behind the newest one seen means
        # the network delivered this datagram out of order (an exact
        # duplicate would have tripped the replay window above).
        reordered = seq < self._expected_receiver_seq
        if not reordered:
            self._expected_receiver_seq = seq + 1
            self._saved_timestamp = timestamp
            self._saved_timestamp_received_at = now
            self._last_heard = now
            if self._is_server and addr is not None:
                # Client roaming: newest authentic datagram wins (§2.2).
                self._remote_addr = addr
        # Out-of-order packets are still delivered: every datagram is an
        # idempotent diff, so the transport layer handles them safely.
        rtt_sample: float | None = None
        if timestamp_reply != TIMESTAMP_NONE:
            sample = timestamp_diff(timestamp16(now), timestamp_reply)
            # Ignore absurd samples caused by 16-bit wrap on idle links.
            if sample < 60000:
                self._rtt.observe(float(sample))
                rtt_sample = float(sample)
        self.datagrams_received += 1
        self.bytes_received += len(raw)
        if flight is not None:
            flight.note_recv(
                now,
                self._dir_in,
                seq,
                len(raw),
                timestamp,
                timestamp_reply,
                _peek_fragment(payload),
                reordered,
                rtt_sample,
                self._rtt.srtt if self._rtt.have_sample else None,
                self._rtt.rto(),
            )
        self._received_payloads.append(payload)
        causal = self.causal
        if causal is not None:
            rx = (
                now,
                seq,
                timestamp,
                timestamp_reply
                if timestamp_reply != TIMESTAMP_NONE
                else None,
                rtt_sample,
                self._session.stats.last_unseal_us,
                # Smoothed RTT as the wire-share fallback for settle
                # datagrams whose reply slot is empty (the peer spent
                # its saved timestamp on an earlier reply).
                self._rtt.srtt if self._rtt.have_sample else None,
            )
            causal.on_recv(rx)
            self._received_rx.append(rx)
        if notify and self.on_datagram is not None:
            self.on_datagram(now)
        return True

    def notify_datagrams(self, now: float, count: int) -> None:
        """Coalesced post-batch notification: ``count`` payloads queued.

        Prefers the batch-aware ``on_datagram_count`` hook (one pump kick
        for the whole burst); without one, replays ``on_datagram`` per
        datagram so un-upgraded listeners observe identical call counts.
        """
        if self.on_datagram_count is not None:
            self.on_datagram_count(now, count)
            return
        if self.on_datagram is not None:
            for _ in range(count):
                self.on_datagram(now)

    def pop_received(self) -> list[bytes]:
        """Drain payloads that arrived since the last call."""
        out = self._received_payloads
        self._received_payloads = []
        self._received_rx = []
        return out

    def pop_received_rx(self) -> tuple[list[bytes], list[tuple]]:
        """Drain payloads plus their causal rx tuples, index-aligned.

        The rx list is empty unless a causal tracer is attached (it is
        captured per accepted payload, so when present the two lists have
        equal length and ``rx[i]`` describes the datagram that carried
        ``payloads[i]``). When nothing arrived, both are one shared empty
        tuple, so an idle tick allocates nothing.
        """
        payloads = self._received_payloads
        if not payloads:
            return _NOTHING_RECEIVED
        rx = self._received_rx
        self._received_payloads = []
        self._received_rx = []
        return payloads, rx

    # ------------------------------------------------------------------
    # Link state
    # ------------------------------------------------------------------

    @property
    def session(self) -> Session | NullSession:
        """The sealing session (its ``stats`` count the crypto totals)."""
        return self._session

    @property
    def is_server(self) -> bool:
        return self._is_server

    @property
    def dir_out(self) -> str:
        """Flight-recorder direction label for outgoing datagrams."""
        return self._dir_out

    @property
    def dir_in(self) -> str:
        """Flight-recorder direction label for incoming datagrams."""
        return self._dir_in

    @property
    def mtu(self) -> int:
        return self._mtu

    @property
    def srtt(self) -> float:
        return self._rtt.srtt

    @property
    def rttvar(self) -> float:
        return self._rtt.rttvar

    @property
    def has_rtt_sample(self) -> bool:
        return self._rtt.have_sample

    def srtt_estimate(self) -> float:
        """SRTT once a sample exists, else the conservative 1 s default.

        The single home of the "srtt or 1000 ms" fallback that session
        cores feed to the prediction engine.
        """
        return self._rtt.srtt if self._rtt.have_sample else DEFAULT_SRTT_MS

    def rto(self) -> float:
        """Current retransmission timeout, milliseconds."""
        return self._rtt.rto()

    @property
    def last_heard(self) -> float | None:
        """Timestamp of the last authentic datagram, for liveness warnings."""
        return self._last_heard

    @property
    def remote_addr(self) -> Any:
        return self._remote_addr

    def set_remote_addr(self, addr: Any) -> None:
        """Set the initial peer address (client side / test harness)."""
        self._remote_addr = addr
