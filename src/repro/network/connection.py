"""The real-UDP datagram endpoint.

This is the datagram layer §2.2 describes, over actual sockets: the server
"listens on a high UDP port"; the client sends to it from whatever source
address the network gives it, and may roam at any time — the server
re-targets to the source of the newest authentic datagram.

No privileged code is required (design goal 2): the server binds an
unprivileged port and the shared key is exchanged out-of-band (in real
Mosh, over SSH; in :mod:`repro.cli`, printed on stdout).
"""

from __future__ import annotations

import errno
import socket
from typing import Any

from repro.clock import Clock, RealClock
from repro.crypto.session import Session
from repro.daemon.mux import SessionMux, VirtualEndpoint
from repro.errors import NetworkError
from repro.network.batch import SyscallCounter
from repro.network.interface import DatagramEndpoint
from repro.network.sysbatch import BatchReceiver, BatchSender
from repro.obs.flight import DIR_S2C, FlightRecorder, peek_seq
from repro.obs.registry import MetricsRegistry

PORT_RANGE = (60001, 60999)


def _bind_server(sock: socket.socket, host: str, port: int | None) -> None:
    """Bind a server socket: the requested port, or the first free one in
    the mosh range."""
    if port is not None:
        try:
            sock.bind((host, port))
            return
        except OSError as exc:
            raise NetworkError(f"cannot bind UDP port {port}: {exc}") from exc
    lo, hi = PORT_RANGE
    for candidate in range(lo, hi + 1):
        try:
            sock.bind((host, candidate))
            return
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE:
                raise NetworkError(f"cannot bind: {exc}") from exc
    raise NetworkError(f"no free UDP port in {lo}..{hi}")


class UdpConnection(DatagramEndpoint):
    """A datagram endpoint bound to a real UDP socket."""

    def __init__(
        self,
        session: Session,
        is_server: bool,
        bind_host: str = "0.0.0.0",
        port: int | None = None,
        clock: Clock | None = None,
        mtu: int = 500,
        conn_id: int | None = None,
    ) -> None:
        super().__init__(session=session, is_server=is_server, mtu=mtu)
        if conn_id is not None:
            self.set_conn_id(conn_id)
        self._clock = clock or RealClock()
        self._bind_host = bind_host
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setblocking(False)
        if is_server:
            _bind_server(self._sock, bind_host, port)
        else:
            self._sock.bind((bind_host, 0))
        #: Kernel-crossing tally (benchmarks read syscalls-per-packet).
        self.syscalls = SyscallCounter()
        # Reused intake buffer: the old per-datagram ``recvfrom(65536)``
        # allocated (and mostly wasted) 64 KiB per call on the hot path.
        self._rbuf = bytearray(65536)

    def rebind(self, bind_host: str | None = None) -> int:
        """Move a client to a fresh source address; returns the new fd.

        This is the roaming primitive: the old socket closes, subsequent
        datagrams leave from a new ephemeral port, and the server
        re-targets to the new source once one authenticates. Callers
        driving a select loop must re-register the returned descriptor.
        """
        if self._is_server:
            raise NetworkError("only clients roam; the server address is fixed")
        if bind_host is not None:
            self._bind_host = bind_host
        self._sock.close()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setblocking(False)
        self._sock.bind((self._bind_host, 0))
        return self._sock.fileno()

    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def fileno(self) -> int:
        """For select()-based event loops."""
        return self._sock.fileno()

    def now(self) -> float:
        return self._clock.now()

    def _transmit(self, raw: bytes, now: float) -> None:
        try:
            self._sock.sendto(raw, self._remote_addr)
            self.syscalls.note("sendto")
        except OSError:
            # Transient send failures (e.g. ENETUNREACH while roaming) are
            # indistinguishable from packet loss; SSP recovers either way.
            # The flight recorder still notes the local terminal fate, so
            # an offline merge can tell "never left the host" from "lost
            # on the wire".
            if self.flight is not None:
                self.flight.note_drop(
                    now, self.dir_out, "send_err",
                    seq=peek_seq(raw), wire_len=len(raw),
                )

    def receive_ready(self) -> int:
        """Drain the socket; returns the number of datagrams processed."""
        count = 0
        now = self._clock.now()
        buf = self._rbuf
        while True:
            try:
                length, addr = self._sock.recvfrom_into(buf)
            except BlockingIOError:
                break
            except OSError:
                break
            self.syscalls.note("recvfrom")
            # Exact-size copy: the intake buffer is reused next iteration
            # and downstream retains payload slices.
            self._handle_datagram(bytes(buf[:length]), addr, now)
            count += 1
        return count

    def close(self) -> None:
        self._sock.close()


class MuxUdpConnection:
    """One UDP socket carrying many sessions — the daemon's port.

    Where :class:`UdpConnection` *is* an endpoint, this owns a
    :class:`~repro.daemon.mux.SessionMux` and hands out
    :class:`~repro.daemon.mux.VirtualEndpoint` instances, one per
    session; each behaves exactly like a private connection to its
    session core. The socket surface (``port``, ``fileno``,
    ``receive_ready``, ``close``) matches :class:`UdpConnection` so the
    select-loop plumbing is identical.
    """

    def __init__(
        self,
        bind_host: str = "0.0.0.0",
        port: int | None = None,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self._clock = clock or RealClock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setblocking(False)
        _bind_server(self._sock, bind_host, port)
        self.mux = SessionMux(
            clock=self._clock.now,
            transmit=self._sendto,
            registry=registry,
            flight=flight,
        )
        #: Kernel-crossing tally (benchmarks read syscalls-per-packet).
        self.syscalls = SyscallCounter()
        self._receiver = BatchReceiver(self._sock, counter=self.syscalls)
        self._sender = BatchSender(self._sock, counter=self.syscalls)
        #: Optional :class:`~repro.network.batch.RxBatcher` staging the
        #: sessions' inbound datagrams. ``receive_ready`` flushes it
        #: between intake bursts because the receiver's slot views are
        #: only valid until its next ``recv_many`` call.
        self.rx_batcher = None

    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def fileno(self) -> int:
        """For select()-based event loops."""
        return self._sock.fileno()

    def now(self) -> float:
        return self._clock.now()

    def open_endpoint(
        self,
        session: Session,
        conn_id: int | None = None,
        mtu: int = 500,
    ) -> VirtualEndpoint:
        """Attach one session to this port (id allocated when None)."""
        return self.mux.open_endpoint(session, conn_id=conn_id, mtu=mtu)

    def transmit_many(self, sends: list) -> list[int]:
        """Wire-batcher flush target: one ``sendmmsg`` burst per tick.

        ``sends`` is the batcher's ``(header, raw, addr, endpoint, now)``
        list; returns the indexes that failed (flight-recorded by the
        batcher as ``send_err`` fates).
        """
        live = [i for i, s in enumerate(sends) if s[2] is not None]
        if len(live) == len(sends):
            return self._sender.send_many(sends)
        # Address-less entries (peer never heard from) are silent drops,
        # exactly like the unbatched ``_sendto`` guard.
        failed = self._sender.send_many([sends[i] for i in live])
        return [live[i] for i in failed]

    def _sendto(self, raw: bytes, addr: Any, now: float) -> None:
        if addr is None:
            return
        try:
            self._sock.sendto(raw, addr)
            self.syscalls.note("sendto")
        except OSError:
            # Same policy as UdpConnection._transmit: a failed send is
            # wire loss with a locally recorded fate.
            if self.mux.flight is not None:
                self.mux.flight.note_drop(
                    now, DIR_S2C, "send_err",
                    seq=peek_seq(raw), wire_len=len(raw),
                )

    def receive_ready(self) -> int:
        """Drain the socket, routing each datagram to its session.

        Datagrams arrive in ``recvmmsg`` bursts as views into the
        receiver's reusable slots; with an :attr:`rx_batcher` attached
        the sessions stage those views and the batcher is flushed before
        the next burst can overwrite the slots (the flush materializes
        everything it keeps).
        """
        count = 0
        now = self._clock.now()
        dispatch = self.mux.dispatch
        rx = self.rx_batcher
        while True:
            burst = self._receiver.recv_many()
            if not burst:
                break
            for body, addr in burst:
                dispatch(body, addr, now)
            count += len(burst)
            if rx is not None:
                rx.flush()
        return count

    def close(self) -> None:
        self._sock.close()
