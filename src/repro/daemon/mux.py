"""Connection muxing: many SSP sessions behind one datagram port.

A :class:`SessionMux` is the daemon's routing table. A daemon port
speaks exactly one wire dialect: every datagram carries a cleartext
varint connection id ahead of the nonce, peeked pre-auth
(:func:`repro.network.packet.peek_conn_id`, the same never-raise
discipline as ``peek_seq``). Routing is one dict lookup on that id, and
because the id names the *session* rather than the 4-tuple, a roaming
client keeps its session across any address change — the QUIC/SSH3
demultiplexing property, applied to SSP.

An unframed datagram, or one naming no open session, is dropped in O(1)
before any crypto work (``daemon.no_route``). A forged or mis-addressed
conn id can only deliver a datagram to a session whose key will refuse
it — exactly as harmful as dropping it — so the id lives safely outside
the sealed region.

:class:`VirtualEndpoint` is what each session core sees: a full
:class:`~repro.network.interface.DatagramEndpoint` (sequence numbers,
RTT estimation, roaming re-target, flight recording) whose transmit
simply hands framed bytes back to the owning mux's shared port.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.crypto.session import Session
from repro.errors import NetworkError
from repro.network.interface import DatagramEndpoint
from repro.network.packet import peek_conn_id
from repro.obs import registry as _obs
from repro.obs.flight import DIR_C2S, FlightRecorder, peek_seq
from repro.obs.registry import MetricsRegistry


class VirtualEndpoint(DatagramEndpoint):
    """One session's endpoint on the mux's shared port.

    Always a server-side endpoint: the daemon owns the port. The conn-id
    framing (attach on send, strip/validate on receive) is inherited
    from :class:`DatagramEndpoint`; only raw byte movement is delegated
    to the mux.
    """

    def __init__(
        self,
        mux: "SessionMux",
        session: Session,
        conn_id: int,
        mtu: int = 500,
    ) -> None:
        super().__init__(session=session, is_server=True, mtu=mtu)
        self.set_conn_id(conn_id)
        self._mux = mux

    def now(self) -> float:
        return self._mux.now()

    def _transmit(self, raw: bytes, now: float) -> None:
        self._mux.transmit(raw, self._remote_addr, now)

    def transmit_to(self, raw: bytes, addr: Any, now: float) -> None:
        """Batched-flush transmit: the mux port is inherently addressable."""
        self._mux.transmit(raw, addr, now)

    def deliver(self, raw: bytes, addr: Any, now: float) -> None:
        """Inbound raw datagram (still framed) from the mux."""
        self._handle_datagram(raw, addr, now)

    def close(self) -> None:
        """Withdraw this session from the routing table."""
        self._mux.close_endpoint(self._conn_id)


class SessionMux:
    """Routing table demultiplexing one port's datagrams to N sessions.

    Transport-agnostic: the real-UDP shell
    (:class:`~repro.network.connection.MuxUdpConnection`) and the
    simulator (:class:`~repro.simnet.host.SimMuxPort`) both feed
    :meth:`dispatch` and carry :attr:`transmit` outward.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        transmit: Callable[[bytes, Any, float], None] | None = None,
        registry: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self._clock = clock
        #: Outward raw-byte path: ``transmit(raw, dest_addr, now)``.
        self.transmit = transmit
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Optional recorder for pre-route terminal fates (garbage and
        #: unroutable datagrams die before reaching any session).
        self.flight = flight
        self._routes: dict[int, VirtualEndpoint] = {}
        self._next_conn_id = 1
        self._routed = self.registry.counter("daemon.datagrams_routed")
        self._bad = self.registry.counter("daemon.bad_packets")
        self._no_route = self.registry.counter("daemon.no_route")
        self.registry.gauge("daemon.sessions_routed", fn=lambda: len(self._routes))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    @property
    def conn_ids(self) -> list[int]:
        return sorted(self._routes)

    def endpoint(self, conn_id: int) -> VirtualEndpoint | None:
        return self._routes.get(conn_id)

    def open_endpoint(
        self,
        session: Session,
        conn_id: int | None = None,
        mtu: int = 500,
    ) -> VirtualEndpoint:
        """Create and register a session endpoint (id allocated if None)."""
        if conn_id is None:
            while self._next_conn_id in self._routes:
                self._next_conn_id += 1
            conn_id = self._next_conn_id
            self._next_conn_id += 1
        elif conn_id in self._routes:
            raise NetworkError(f"connection id {conn_id} already in use")
        endpoint = VirtualEndpoint(self, session, conn_id, mtu=mtu)
        self._routes[conn_id] = endpoint
        return endpoint

    def close_endpoint(self, conn_id: int) -> bool:
        """Free the routing entry for a session."""
        return self._routes.pop(conn_id, None) is not None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _drop(self, now: float, reason: str, raw: bytes) -> None:
        if self.flight is not None and _obs._enabled:
            self.flight.note_drop(
                now, DIR_C2S, reason, seq=peek_seq(raw), wire_len=len(raw)
            )

    def dispatch(
        self, raw: bytes, addr: Any, now: float | None = None
    ) -> VirtualEndpoint | None:
        """Route one inbound datagram by its connection id; returns the
        endpoint that took it.

        Never raises, whatever bytes arrive: garbage counts
        ``daemon.bad_packets``; an unframed datagram or an id no session
        owns counts ``daemon.no_route``. Both die here, before any crypto
        work, and leave a ``drop`` flight event.
        """
        if now is None:
            now = self._clock()
        peeked = peek_conn_id(raw)
        if peeked is None:
            self._bad.value += 1
            self._drop(now, "bad_packet", raw)
            return None
        # An unframed datagram peeks as id None, which no session owns.
        endpoint = self._routes.get(peeked[0])
        if endpoint is None:
            self._no_route.value += 1
            self._drop(now, "no_route", raw)
            return None
        endpoint.deliver(raw, addr, now)
        self._routed.value += 1
        return endpoint
