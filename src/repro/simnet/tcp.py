"""A simplified TCP over simulated links, for the SSH baseline.

The paper's SSH baseline runs over "Linux 2.6.32 default TCP (cubic)" and
its pathologies under loss come from the retransmission state machine:
RTO with exponential backoff is what produces the 16.8 s mean / 52 s σ
response times at 29 % per-direction loss (§4). This model implements:

* cumulative ACKs with out-of-order reassembly;
* RTT estimation per RFC 6298 (Karn's rule: no samples from retransmits);
* retransmission timeout with Linux-like bounds (200 ms floor, 120 s cap)
  and exponential backoff;
* fast retransmit on three duplicate ACKs;
* slow start and AIMD congestion avoidance (a documented substitution for
  cubic: the loss-recovery behaviour, not the growth curve, drives the
  reproduced results).

Segments are routed through :class:`repro.simnet.link.Link` objects, so a
TCP flow can share a bottleneck buffer with SSP traffic (the LTE
bufferbloat experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.network.rtt import RttEstimator
from repro.simnet.eventloop import EventLoop
from repro.simnet.link import Link

#: TCP/IP header overhead added to every segment's wire size.
HEADER_BYTES = 40

#: Bulk cross-traffic: bytes queued per refill, and the refill cadence.
BULK_CHUNK_BYTES = 64 * 1024
BULK_REFILL_INTERVAL_MS = 20.0


@dataclass(frozen=True)
class TcpConfig:
    mss: int = 1400
    min_rto_ms: float = 200.0  # Linux TCP_RTO_MIN
    max_rto_ms: float = 120_000.0  # Linux TCP_RTO_MAX
    initial_rto_ms: float = 1000.0  # RFC 6298 §2.1
    initial_cwnd_segments: int = 10  # Linux initcwnd
    dupack_threshold: int = 3
    #: Receiver window: bounds in-flight data like Linux's rmem. On a
    #: loss-free deep-buffered cellular link this — not loss — is what
    #: caps the standing queue (the bufferbloat mechanism in the LTE
    #: experiment: several seconds of in-flight data, persistently).
    receive_window_bytes: int = 5_000_000


@dataclass
class Segment:
    seq: int
    data: bytes
    ack: int

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + len(self.data)

    @property
    def end(self) -> int:
        return self.seq + len(self.data)


class TcpEndpoint:
    """One side of an established TCP connection."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        config: TcpConfig | None = None,
    ) -> None:
        self._loop = loop
        self.name = name
        self.config = config or TcpConfig()
        # Wired by tcp_pair().
        self._out_link: Link | None = None
        self._peer: "TcpEndpoint" | None = None
        self.on_data: Callable[[bytes], None] | None = None

        # --- sender state ---
        self._snd_una = 0
        self._snd_nxt = 0
        self._tx_base = 0  # absolute seq of _tx_buffer[0]
        self._tx_buffer = bytearray()
        self._cwnd = float(self.config.initial_cwnd_segments * self.config.mss)
        self._ssthresh = float(1 << 30)
        self._dupacks = 0
        self._rtt = RttEstimator(
            initial_srtt_ms=self.config.initial_rto_ms,
            min_rto_ms=self.config.min_rto_ms,
            max_rto_ms=self.config.max_rto_ms,
        )
        self._rto_backoff = 1.0
        self._rto_timer: int | None = None
        # seq -> send time for RTT samples (first transmissions only)
        self._sample_times: dict[int, float] = {}
        self._retransmitted: set[int] = set()
        # NewReno recovery: while snd_una < recovery_point, every partial
        # ack retransmits the (new) head so one loss heals per RTT.
        self._in_recovery = False
        self._recovery_point = 0

        # --- receiver state ---
        self._rcv_nxt = 0
        self._ooo: dict[int, bytes] = {}

        # --- counters ---
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _wire(self, out_link: Link, peer: "TcpEndpoint") -> None:
        self._out_link = out_link
        self._peer = peer

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Queue application bytes for in-order delivery to the peer."""
        if not data:
            return
        self._tx_buffer += data
        self._try_transmit()

    def unacked_bytes(self) -> int:
        """Bytes in flight (sent but not cumulatively acknowledged)."""
        return self._snd_nxt - self._snd_una

    def buffered_bytes(self) -> int:
        """Bytes accepted from the app but not yet acknowledged."""
        return self._tx_base + len(self._tx_buffer) - self._snd_una

    @property
    def cwnd_bytes(self) -> float:
        return self._cwnd

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _available_window(self) -> int:
        window = min(int(self._cwnd), self.config.receive_window_bytes)
        return max(0, window - self.unacked_bytes())

    def _try_transmit(self) -> None:
        mss = self.config.mss
        while True:
            window = self._available_window()
            start = self._snd_nxt - self._tx_base
            pending = len(self._tx_buffer) - start
            if pending <= 0 or window <= 0:
                break
            size = min(mss, pending, window) if pending >= 1 else 0
            if size <= 0:
                break
            chunk = bytes(self._tx_buffer[start : start + size])
            seg = Segment(seq=self._snd_nxt, data=chunk, ack=self._rcv_nxt)
            self._sample_times[self._snd_nxt] = self._loop.now()
            self._snd_nxt += size
            self._emit(seg)
        self._arm_rto()

    def _emit(self, seg: Segment) -> None:
        assert self._out_link is not None and self._peer is not None
        self.segments_sent += 1
        peer = self._peer
        self._out_link.send(seg, seg.wire_size, peer._on_segment)

    def _send_ack(self) -> None:
        self._emit(Segment(seq=self._snd_nxt, data=b"", ack=self._rcv_nxt))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _current_rto(self) -> float:
        if self._rtt.have_sample:
            base = self._rtt.rto()
        else:
            base = self.config.initial_rto_ms  # RFC 6298 §2.1
        return min(self.config.max_rto_ms, base * self._rto_backoff)

    def _arm_rto(self) -> None:
        if self.unacked_bytes() == 0:
            self._disarm_rto()
            return
        if self._rto_timer is not None:
            return
        deadline = self._loop.now() + self._current_rto()
        self._rto_timer = self._loop.schedule_at(deadline, self._on_rto)

    def _rearm_rto(self) -> None:
        self._disarm_rto()
        self._arm_rto()

    def _disarm_rto(self) -> None:
        if self._rto_timer is not None:
            self._loop.cancel(self._rto_timer)
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.unacked_bytes() == 0:
            return
        # Loss: collapse the window, back off, resend the head segment.
        self.timeouts += 1
        flight = self.unacked_bytes()
        self._ssthresh = max(flight / 2.0, 2.0 * self.config.mss)
        self._cwnd = float(self.config.mss)
        self._rto_backoff = min(self._rto_backoff * 2.0, 2.0**16)
        self._dupacks = 0
        self._in_recovery = True
        self._recovery_point = self._snd_nxt
        self._retransmit_head()
        self._arm_rto()

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def _retransmit_head(self) -> None:
        start = self._snd_una - self._tx_base
        if start >= len(self._tx_buffer):
            return
        size = min(self.config.mss, self._snd_nxt - self._snd_una)
        chunk = bytes(self._tx_buffer[start : start + size])
        self.retransmissions += 1
        self._retransmitted.add(self._snd_una)
        self._sample_times.pop(self._snd_una, None)  # Karn's rule
        self._emit(Segment(seq=self._snd_una, data=chunk, ack=self._rcv_nxt))

    def _on_segment(self, seg: Segment) -> None:
        self._process_ack(seg.ack)
        if seg.data:
            self._process_data(seg)

    def _process_ack(self, ack: int) -> None:
        if ack > self._snd_una:
            # New data acknowledged.
            if ack in self._sample_times or any(
                s < ack for s in list(self._sample_times)
            ):
                # Sample from the newest first-transmission covered by ack.
                covered = [s for s in self._sample_times if s < ack]
                if covered:
                    newest = max(covered)
                    self._rtt.observe(
                        self._loop.now() - self._sample_times[newest]
                    )
                for s in covered:
                    del self._sample_times[s]
            acked = ack - self._snd_una
            self._snd_una = ack
            self._retransmitted = {s for s in self._retransmitted if s >= ack}
            self._rto_backoff = 1.0
            self._dupacks = 0
            # Congestion control.
            if self._cwnd < self._ssthresh:
                self._cwnd += acked  # slow start
            else:
                self._cwnd += self.config.mss * acked / self._cwnd  # AIMD
            # Release acknowledged bytes from the buffer.
            release = self._snd_una - self._tx_base
            if release > 65536:
                del self._tx_buffer[:release]
                self._tx_base = self._snd_una
            if self._in_recovery:
                if ack < self._recovery_point:
                    # NewReno partial ack: the next hole starts at the new
                    # head — retransmit it now instead of waiting for RTO.
                    self._retransmit_head()
                else:
                    self._in_recovery = False
            self._rearm_rto()
            self._try_transmit()
        elif ack == self._snd_una and self.unacked_bytes() > 0:
            self._dupacks += 1
            if self._dupacks == self.config.dupack_threshold:
                # Fast retransmit + (simplified) fast recovery.
                flight = self.unacked_bytes()
                self._ssthresh = max(flight / 2.0, 2.0 * self.config.mss)
                self._cwnd = self._ssthresh
                self._in_recovery = True
                self._recovery_point = self._snd_nxt
                self._retransmit_head()
                self._rearm_rto()

    def _process_data(self, seg: Segment) -> None:
        if seg.end > self._rcv_nxt:
            self._ooo[seg.seq] = seg.data
        delivered = bytearray()
        advanced = True
        while advanced:
            advanced = False
            for seq in sorted(self._ooo):
                data = self._ooo[seq]
                if seq <= self._rcv_nxt < seq + len(data):
                    offset = self._rcv_nxt - seq
                    delivered += data[offset:]
                    self._rcv_nxt = seq + len(data)
                    del self._ooo[seq]
                    advanced = True
                    break
                if seq + len(data) <= self._rcv_nxt:
                    del self._ooo[seq]
                    advanced = True
                    break
        self._send_ack()
        if delivered and self.on_data is not None:
            self.on_data(bytes(delivered))


def tcp_pair(
    loop: EventLoop,
    uplink: Link,
    downlink: Link,
    config: TcpConfig | None = None,
    names: tuple[str, str] = ("tcp-client", "tcp-server"),
) -> tuple[TcpEndpoint, TcpEndpoint]:
    """Create an established TCP connection: client sends via ``uplink``,
    server responds via ``downlink``."""
    client = TcpEndpoint(loop, names[0], config)
    server = TcpEndpoint(loop, names[1], config)
    client._wire(uplink, server)
    server._wire(downlink, client)
    return client, server


class BulkSender:
    """Keeps a TCP flow saturated — the 'concurrent download' cross-traffic.

    Tops the sender's buffer up periodically so the congestion window is
    always the limiting factor, exactly like a large file transfer.
    """

    def __init__(
        self,
        loop: EventLoop,
        endpoint: TcpEndpoint,
    ) -> None:
        self._loop = loop
        self._endpoint = endpoint
        self._running = False

    def start(self) -> None:
        self._running = True
        self._refill()

    def stop(self) -> None:
        self._running = False

    def _refill(self) -> None:
        if not self._running:
            return
        # Keep the *unsent* backlog topped up: like a real bulk writer, the
        # congestion window — not the application — must be the limiter.
        backlog = self._endpoint.buffered_bytes() - self._endpoint.unacked_bytes()
        if backlog < 2 * BULK_CHUNK_BYTES:
            self._endpoint.send(b"\x00" * BULK_CHUNK_BYTES)
        self._loop.schedule(BULK_REFILL_INTERVAL_MS, self._refill)
