"""Simulated UDP endpoints and the network that routes between them.

A :class:`SimNetwork` owns two directed links — ``uplink`` (client→server)
and ``downlink`` (server→client) — and a registry of endpoint addresses.
Addresses are plain strings; a roaming client simply starts sending from a
new source address (:meth:`SimUdpEndpoint.roam`), and the server's datagram
layer re-targets automatically when the next authentic datagram arrives,
exactly as in §2.2 of the paper.

Links may be shared with other traffic sources (the bulk TCP flow in the
LTE bufferbloat experiment), so queueing interactions are realistic.
"""

from __future__ import annotations

from random import Random

from repro.crypto.session import Session
from repro.errors import SimulationError
from repro.network.interface import DatagramEndpoint
from repro.simnet.eventloop import EventLoop
from repro.simnet.link import Link, LinkConfig

CLIENT_SIDE = "client"
SERVER_SIDE = "server"


class SimNetwork:
    """Routes datagrams between simulated endpoints through the two links."""

    def __init__(
        self,
        loop: EventLoop,
        uplink_config: LinkConfig,
        downlink_config: LinkConfig,
        seed: int = 0,
    ) -> None:
        self.loop = loop
        rng = Random(seed)
        # Independent RNG streams per direction so loss draws on one
        # direction can't perturb the other.
        self.uplink = Link(loop, uplink_config, Random(rng.getrandbits(64)))
        self.downlink = Link(loop, downlink_config, Random(rng.getrandbits(64)))
        self._rng = rng
        #: Per-client-address access links (uplink, downlink): a fleet of
        #: heterogeneous clients (EV-DO next to LTE next to wifi) routes
        #: each through its own link pair; unmapped addresses keep the
        #: shared defaults.
        self._addr_links: dict[str, tuple[Link, Link]] = {}
        self._endpoints: dict[str, "SimUdpEndpoint"] = {}

    def register(self, addr: str, endpoint: "SimUdpEndpoint") -> None:
        if addr in self._endpoints and self._endpoints[addr] is not endpoint:
            raise SimulationError(f"address {addr!r} already registered")
        self._endpoints[addr] = endpoint

    def unregister(self, addr: str) -> None:
        self._endpoints.pop(addr, None)

    def add_addr_profile(
        self,
        addr: str,
        uplink_config: LinkConfig,
        downlink_config: LinkConfig,
    ) -> tuple[Link, Link]:
        """Give one client address its own access-link pair.

        Traffic *from* ``addr`` rides the private uplink; traffic *to*
        it rides the private downlink. Each link draws from an
        independent RNG stream seeded off the network seed, so adding a
        profile never perturbs any other link's loss sequence.
        """
        pair = (
            Link(self.loop, uplink_config, Random(self._rng.getrandbits(64))),
            Link(self.loop, downlink_config, Random(self._rng.getrandbits(64))),
        )
        self._addr_links[addr] = pair
        return pair

    def send_datagram(
        self, from_side: str, src_addr: str, dst_addr: str, raw: bytes
    ) -> None:
        """Route raw bytes from ``src_addr`` toward ``dst_addr``."""
        if from_side == CLIENT_SIDE:
            pair = self._addr_links.get(src_addr)
            link = pair[0] if pair is not None else self.uplink
        elif from_side == SERVER_SIDE:
            pair = self._addr_links.get(dst_addr)
            link = pair[1] if pair is not None else self.downlink
        else:
            raise SimulationError(f"unknown side {from_side!r}")

        def deliver(data: bytes) -> None:
            endpoint = self._endpoints.get(dst_addr)
            if endpoint is not None:
                endpoint.deliver(data, src_addr)

        link.send(raw, len(raw), deliver)


class SimUdpEndpoint(DatagramEndpoint):
    """A datagram endpoint attached to a :class:`SimNetwork`."""

    def __init__(
        self,
        network: SimNetwork,
        session: Session,
        is_server: bool,
        local_addr: str,
        mtu: int = 500,
        conn_id: int | None = None,
    ) -> None:
        super().__init__(session=session, is_server=is_server, mtu=mtu)
        if conn_id is not None:
            self.set_conn_id(conn_id)
        self._network = network
        self._side = SERVER_SIDE if is_server else CLIENT_SIDE
        self._local_addr = local_addr
        network.register(local_addr, self)

    @property
    def local_addr(self) -> str:
        return self._local_addr

    def roam(self, new_addr: str) -> None:
        """Move to a new source address (e.g. Wi-Fi → cellular handoff).

        The client does not notify anyone; the server learns the new
        address from the source of the next authentic datagram.
        """
        if self._is_server:
            raise SimulationError("only the client roams")
        self._network.unregister(self._local_addr)
        self._local_addr = new_addr
        self._network.register(new_addr, self)

    def _transmit(self, raw: bytes, now: float) -> None:
        self._network.send_datagram(
            self._side, self._local_addr, str(self._remote_addr), raw
        )

    def transmit_to(self, raw: bytes, addr, now: float) -> None:
        """Batched-flush transmit toward the address fixed at enqueue."""
        self._network.send_datagram(
            self._side, self._local_addr, str(addr), raw
        )

    def deliver(self, raw: bytes, src_addr: str) -> None:
        """Called by the network when a datagram arrives."""
        self._handle_datagram(raw, src_addr, self._network.loop.now())


class SimMuxPort:
    """The daemon's shared port inside the simulator.

    The sim-side counterpart of the real daemon's UDP socket: one
    network address whose inbound datagrams all go to a single handler
    (a :class:`~repro.daemon.mux.SessionMux` dispatch, injected as a
    plain callable so this module stays independent of the daemon
    package) and whose ``transmit`` carries any session's bytes out on
    the server side of the links.
    """

    def __init__(
        self,
        network: SimNetwork,
        local_addr: str,
        handler=None,
    ) -> None:
        self._network = network
        self._local_addr = local_addr
        #: ``handler(raw, src_addr, now)`` — the mux's dispatch.
        self.handler = handler
        network.register(local_addr, self)

    @property
    def local_addr(self) -> str:
        return self._local_addr

    def deliver(self, raw: bytes, src_addr: str) -> None:
        """Called by the network when a datagram arrives."""
        if self.handler is not None:
            self.handler(raw, src_addr, self._network.loop.now())

    def transmit(self, raw: bytes, dst_addr, now: float) -> None:
        """Outbound raw-byte path handed to the mux."""
        if dst_addr is None:
            return  # session has not heard from its client yet
        self._network.send_datagram(
            SERVER_SIDE, self._local_addr, str(dst_addr), raw
        )

    def close(self) -> None:
        self._network.unregister(self._local_addr)
