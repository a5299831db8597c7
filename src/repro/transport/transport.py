"""The Transport facade: one SSP instance over one datagram endpoint.

Mosh runs SSP "in each direction, instantiated on two different kinds of
objects" (§2): from client to server the object is the history of user
input; from server to client it is the terminal contents. A single
:class:`Transport` carries one direction's state outward while receiving
the opposite direction's state inward — both multiplexed over the same
datagram endpoint, so acks piggyback naturally.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.errors import FragmentError, StateError, TransportError
from repro.network.interface import DatagramEndpoint
from repro.transport.fragment import OVERHEAD, FragmentAssembly
from repro.transport.instruction import decode_instruction
from repro.transport.receiver import TransportReceiver
from repro.transport.sender import TransportSender
from repro.transport.state import StateObject
from repro.transport.timing import SenderTiming

MyState = TypeVar("MyState", bound=StateObject)
RemoteState = TypeVar("RemoteState", bound=StateObject)


class Transport(Generic[MyState, RemoteState]):
    """Bidirectional SSP endpoint: sends MyState, receives RemoteState."""

    def __init__(
        self,
        endpoint: DatagramEndpoint,
        my_initial_state: MyState,
        remote_initial_state: RemoteState,
        timing: SenderTiming | None = None,
    ) -> None:
        self._endpoint = endpoint
        self.sender: TransportSender[MyState] = TransportSender(
            endpoint, my_initial_state, timing
        )
        self.receiver: TransportReceiver[RemoteState] = TransportReceiver(
            remote_initial_state
        )
        self._assembly = FragmentAssembly()
        #: Instructions dropped because their fragments would not inflate
        #: or their encoding would not decode.
        self.undecodable_ignored = 0
        #: Called with (now) whenever a new remote state lands.
        self.on_remote_state: Callable[[float], None] | None = None
        #: Causal rx tuple of the datagram whose fragment completed the
        #: most recent instruction — the "settling datagram" a causal
        #: tracer charges the return-path stages to. Stays ``None``
        #: unless the endpoint captures rx context (tracer attached).
        self.last_frame_rx: tuple | None = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def endpoint(self) -> DatagramEndpoint:
        return self._endpoint

    @property
    def local_state(self) -> MyState:
        """The live outgoing state; mutate then ``tick``."""
        return self.sender.state

    @property
    def remote_state(self) -> RemoteState:
        """The newest state received from the peer."""
        return self.receiver.latest_state

    @property
    def remote_state_num(self) -> int:
        return self.receiver.latest_num

    # ------------------------------------------------------------------
    # Event loop interface
    # ------------------------------------------------------------------

    def tick(self, now: float) -> float | None:
        """Process arrived datagrams, then let the sender act.

        Returns the sender's wait until its next deadline (None = idle).
        """
        self._receive(now)
        return self.sender.tick(now)

    def _receive(self, now: float) -> None:
        payloads, rx_infos = self._endpoint.pop_received_rx()
        if not payloads:
            return
        sender = self.sender
        receiver = self.receiver
        for i, payload in enumerate(payloads):
            if len(payload) < OVERHEAD:
                continue  # too short to be a fragment
            # Any decodable fragment proves the peer is alive and actively
            # retrying — even a retransmission of an instruction that
            # already assembled (which the assembly ignores below).
            sender.remote_heard(now)
            try:
                encoded = self._assembly.add_fragment(payload)
                if encoded is None:
                    continue
                old_num, new_num, ack_num, throwaway_num, diff = (
                    decode_instruction(encoded)
                )
            except (FragmentError, TransportError):
                self.undecodable_ignored += 1
                continue
            if self._endpoint.flight is not None:
                self._endpoint.flight.note_instruction(
                    now,
                    self._endpoint.dir_in,
                    old_num,
                    new_num,
                    ack_num,
                    throwaway_num,
                    len(diff),
                    self._assembly.completed_id,
                )
            sender.process_acknowledgment_through(ack_num, now)
            try:
                created = receiver.process_instruction(old_num, new_num, diff)
            except StateError:
                continue  # an authentic peer's diff that does not apply
            receiver.process_throwaway_until(throwaway_num)
            if created:
                sender.set_ack_num(receiver.latest_num)
                if diff:
                    sender.set_data_ack(now)
                if rx_infos:
                    # This datagram's fragment completed the instruction:
                    # it is the one that settles whatever the new state
                    # acknowledges (rx capture is per accepted payload,
                    # so the index pairing is exact).
                    self.last_frame_rx = (
                        rx_infos[i] if i < len(rx_infos) else rx_infos[-1]
                    )
                if self.on_remote_state is not None:
                    self.on_remote_state(now)
