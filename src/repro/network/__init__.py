"""SSP datagram layer.

"A datagram layer sends UDP packets over the network" (§2.1). It owns the
roaming connection: it prepends an incrementing sequence number, encrypts
each payload, tracks the client's current public IP address, and estimates
the round-trip time and RTT variation of the link (§2.2).

Two interchangeable endpoint families implement it:

* :mod:`repro.network.connection` — real UDP sockets.
* :mod:`repro.simnet.host` — endpoints inside the deterministic simulator.

Both share the packet format (:mod:`repro.network.packet`), the timestamp
bookkeeping (:mod:`repro.network.interface`), and the RTT estimator
(:mod:`repro.network.rtt`).
"""

from repro.network.interface import DatagramEndpoint
from repro.network.packet import MTU_DEFAULT
from repro.network.rtt import RttEstimator

__all__ = ["DatagramEndpoint", "MTU_DEFAULT", "RttEstimator"]
