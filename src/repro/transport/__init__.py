"""SSP transport layer.

"The transport layer synchronizes the contents of the local state to the
remote host, and is agnostic to the type of objects sent and received"
(§2.3). The sender conveys the current object state by shipping
Instructions — self-contained messages listing source and target state
numbers and the logical diff between them — paced at a frame rate derived
from the RTT estimate, with Mosh's collection interval, delayed ACKs, and
heartbeats.
"""

from repro.transport.fragment import FragmentAssembly, Fragmenter
from repro.transport.instruction import decode_instruction, encode_instruction
from repro.transport.receiver import TransportReceiver
from repro.transport.sender import TransportSender
from repro.transport.state import StateObject
from repro.transport.timing import SenderTiming
from repro.transport.transport import Transport

__all__ = [
    "FragmentAssembly",
    "Fragmenter",
    "SenderTiming",
    "StateObject",
    "Transport",
    "TransportReceiver",
    "TransportSender",
    "decode_instruction",
    "encode_instruction",
]
