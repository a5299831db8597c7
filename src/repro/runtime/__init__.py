"""The reactor runtime: one event-driven core for simulated and real runs.

The paper's client and server are each "a single select() loop" (§2.3).
This package is that loop, abstracted: a :class:`Reactor` provides timers
(with cheap cancellation), I/O-readiness sources, and a metrics registry.
Two implementations exist:

* :class:`SimReactor` — wraps the deterministic discrete-event
  :class:`~repro.simnet.eventloop.EventLoop`; every experiment runs here.
* :class:`RealReactor` — a ``select()``-based loop over real file
  descriptors with the OS monotonic clock; the deployable apps run here.

Endpoint-agnostic session logic (:mod:`repro.session.core`) binds to a
reactor and never knows which one it got, so behaviour-affecting changes
land once and apply to both worlds.

Every counter in the registry has one writer. The reactor counts its own
timer and I/O events; the :class:`TransportPump` hands each endpoint,
crypto session and sender its instruments once, when it is built, and
those components count their events where they happen. No tick copies
counts from one object to another.
"""

from repro.runtime.pump import TransportPump
from repro.runtime.reactor import (
    Reactor,
    RealReactor,
    SimReactor,
    TimerHandle,
)

__all__ = [
    "Reactor",
    "RealReactor",
    "SimReactor",
    "TimerHandle",
    "TransportPump",
]
