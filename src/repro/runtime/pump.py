"""The transport pump: SSP tick pacing as reactor timers.

Mosh's select() loop body is "tick the transport, then sleep until its
next deadline". :class:`TransportPump` expresses that as a self-rescheduling
reactor timer, and kicks immediately whenever the endpoint reports an
authentic datagram — so both the simulated and the real paths are
timer-driven through identical code. Arrivals and deadlines tick; a
local change (host write, keystroke, echo ack, resize) only *pokes*:
it cannot make a frame due before the collection interval ends, so it
stamps that interval's clock and moves the armed timer, and the
deadline's own tick sends.

The pump is also where one endpoint joins the reactor's observability
substrate, once, at construction: it hands the endpoint, its crypto
session and its sender their registry instruments (reactor-wide totals
they increment where each event happens, role-prefixed histograms such
as ``server.crypto.seal_us``, read-through ``client.sender.*``
counters), publishes live SRTT/RTTVAR gauges, and wraps every tick in a
``{role}.tick`` span. Nothing is copied from one counter to another on
a tick, so an idle or parked session's counts are exact too.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.reactor import Reactor, TimerHandle
from repro.transport.transport import Transport

#: Never sleep longer than this between ticks; a safety net matching the
#: transport's 3 s heartbeat interval.
MAX_TICK_DELAY_MS = 3000.0

#: Re-arm delay for a deadline that is not after ``now`` (a tick that
#: left something due), so a confused timer can never pin a simulated
#: clock in place. Future deadlines are armed exactly.
MIN_TICK_DELAY_MS = 0.5

#: A session parks only when its next deadline is at least this far out:
#: an idle sender's sole deadline is the 3 s heartbeat, while pending
#: data acks (<= 100 ms) and pacing deadlines stay well under this.
PARK_MIN_WAIT_MS = 1000.0

#: A *server* that has heard nothing for this long (3+ missed client
#: heartbeats) treats the client as detached — suspended laptop, dead NAT
#: binding — and goes dormant: no heartbeats into the void, no timer
#: armed at all. The first datagram from the returning client kicks the
#: pump synchronously and service resumes. Clients never go dormant;
#: their heartbeats are what probes the path back.
DORMANT_AFTER_MS = 10_000.0


class TransportPump:
    """Self-scheduling pump binding one :class:`Transport` to a reactor.

    Every arrival and every deadline runs exactly one sender tick:
    kicks nested inside a running kick coalesce into it. A local change
    pokes instead, and ticks only when the sender cannot tell its
    deadline without one. The pump holds at most one live timer, armed
    exactly at the sender's next deadline and kept while that deadline
    does not move; parked and suspended pumps hold none.
    """

    def __init__(
        self, reactor: Reactor, transport: Transport, role: str
    ) -> None:
        self._reactor = reactor
        self._transport = transport
        #: The one live tick timer, if any, and the deadline it fires at.
        self._timer: TimerHandle | None = None
        self._when = 0.0
        #: True while :meth:`kick` runs; nested kicks coalesce into it.
        self._kicking = False
        #: True while this session is parked: the sender has no pending
        #: diff and no unacked data, so the only armed timer (if any) is
        #: the coarse heartbeat, and no tick runs before it is due. A
        #: parked pump wakes synchronously on datagram arrival
        #: (``on_datagram`` chains into :meth:`kick`) or on any local
        #: activity (host writes and keystrokes poke directly).
        self.parked = False
        self._parked_since: float | None = None
        #: Park-transition hook: called with the new parked state; the
        #: session manager counts fleet-wide parked/active gauges here.
        self.on_park_change: Callable[[bool], None] | None = None
        #: Instrument-name prefix from ``Reactor.register_core`` ("server",
        #: or "server.s3" for one of N sessions sharing a registry).
        self.role = role
        self._wire_observability(reactor, transport)
        endpoint = transport.endpoint
        inner = endpoint.on_datagram
        datagrams_in = reactor.registry.counter("reactor.datagrams_in")

        def on_datagram(now: float) -> None:
            datagrams_in.value += 1
            if inner is not None:
                inner(now)
            self.kick()

        def on_datagram_count(now: float, count: int) -> None:
            # Coalesced burst notification from the batched receive path:
            # one transport kick for the whole burst instead of one per
            # datagram (the kick is idempotent work scheduling).
            datagrams_in.value += count
            if inner is not None:
                for _ in range(count):
                    inner(now)
            self.kick()

        endpoint.on_datagram = on_datagram
        endpoint.on_datagram_count = on_datagram_count

    def _wire_observability(self, reactor: Reactor, transport) -> None:
        """Hand this endpoint's components their registry instruments."""
        registry = reactor.registry
        role = self.role
        endpoint = transport.endpoint
        endpoint.bind_registry(registry)
        endpoint.session.stats.bind_registry(registry, role)
        transport.sender.bind_registry(registry, role)
        # Live RTT gauges read the estimator at snapshot time, so pacing
        # ticks pay nothing for them.
        registry.gauge(f"{role}.network.srtt_ms", fn=lambda: endpoint.srtt)
        registry.gauge(f"{role}.network.rttvar_ms", fn=lambda: endpoint.rttvar)
        registry.gauge(f"{role}.network.rto_ms", fn=endpoint.rto)
        causal = getattr(endpoint, "causal", None)
        if causal is not None:
            # Causal-tracer health: outstanding (stamped, unsettled)
            # chains and retained tail exemplars. The stage histograms
            # register themselves under ``causal.*`` at tracer build.
            registry.gauge(
                f"{role}.causal.pending", fn=lambda: causal.pending
            )
            registry.gauge(
                f"{role}.causal.exemplars", fn=lambda: causal.exemplar_count
            )
        flight = endpoint.flight
        if flight is not None:
            # Ring occupancy and overwrite count for the wire-level
            # flight recorder, when one is attached to this endpoint.
            registry.gauge(f"{role}.flight.events", fn=lambda: len(flight))
            registry.gauge(
                f"{role}.flight.dropped_events",
                fn=lambda: flight.dropped_events,
            )
        self._tick_span_name = f"{role}.tick"
        self._ticks = registry.counter("reactor.ticks")
        # Fleet-wide (unprefixed) park-transition counters. The split
        # between plain wakes and *dormant* wakes is what lets a health
        # rule tell a mass-reconnect storm (sessions parked for tens of
        # seconds all stampeding back) from a flash crowd of new
        # sessions, whose pre-connect parks last well under a second.
        self._parks = registry.counter("pump.parks")
        self._wakes = registry.counter("pump.wakes")
        self._dormant_wakes = registry.counter("pump.dormant_wakes")

    def kick(self) -> None:
        """Tick the transport now and re-arm at its next deadline.

        Datagram arrivals and timer fires kick: they drain received
        datagrams, and only a tick sends. A kick that arrives while this
        pump is already inside ``kick`` returns at once. Such nested
        kicks come from the receive phase (user events applied, the
        app's echo written to the terminal), and the running kick's
        sender tick and re-arm come after that phase, so they already
        see the nested caller's change.
        """
        if self._kicking:
            return
        self._kicking = True
        try:
            reactor = self._reactor
            now = reactor.now()
            transport = self._transport
            wait = transport.tick(now)
            # Fast-path span: ``now`` is already in hand and this runs on
            # every tick, so skip the context-manager machinery.
            reactor.tracer.record_span(self._tick_span_name, now)
            self._ticks.value += 1
            if wait is None:
                # Deep park: no peer address yet, so nothing can become due
                # until the network speaks. No timer is armed at all — the
                # first datagram (or local activity) kicks synchronously.
                self._disarm()
                self._set_parked(True)
                return
            idle = transport.sender.last_wait_idle
            endpoint = transport.endpoint
            if (
                idle
                and endpoint.is_server
                and endpoint.last_heard is not None
                and now - endpoint.last_heard >= DORMANT_AFTER_MS
            ):
                # Dormant park: the client has been gone for several
                # heartbeat periods. Stop heartbeating at its stale address;
                # its next authentic datagram wakes us.
                self._disarm()
                self._set_parked(True)
                return
            self._set_parked(idle and wait >= PARK_MIN_WAIT_MS)
            self._arm(now, wait)
        finally:
            self._kicking = False

    def poke(self) -> None:
        """Note a local change: re-arm at the sender's deadline, no tick.

        A change made outside a tick cannot send before the collection
        interval ends, so the pump only keeps its armed timer (a change
        is already pending: the deadline does not move) or has the
        sender stamp the interval and re-arms exactly as :meth:`kick`
        would. Anything else kicks: no live timer (suspended, parked
        deep or dormant), no peer address, a state equal to the newest
        sent one, or something due now. Like a nested kick, a poke
        inside a running kick returns at once.
        """
        if self._kicking:
            return
        timer = self._timer
        if timer is None or not timer.active:
            self.kick()
            return
        sender = self._transport.sender
        if sender.frame_pending:
            return
        now = self._reactor.now()
        wait = sender.note_change(now)
        if wait is None:
            self.kick()
            return
        self._set_parked(False)
        self._arm(now, wait)

    def _arm(self, now: float, wait: float) -> None:
        """Keep or move the one live timer to ``now + wait``."""
        if wait > 0.0:
            when = now + min(wait, MAX_TICK_DELAY_MS)
        else:
            when = now + MIN_TICK_DELAY_MS
        timer = self._timer
        if timer is not None and timer.active:
            if self._when == when:
                return  # the armed timer already fires at this deadline
            timer.cancel()
        self._when = when
        self._timer = self._reactor.call_at(when, self.kick)

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def suspend(self) -> None:
        """Stop self-scheduling: the endpoint's machine "went to sleep".

        No timer remains armed, so the session generates no traffic and
        costs nothing until the next :meth:`kick` — a received datagram
        or local activity — resumes the schedule. Used by harnesses to
        model detached clients (closed laptops) at fleet scale.
        """
        self._disarm()
        self._set_parked(True)

    def _set_parked(self, parked: bool) -> None:
        if parked == self.parked:
            return
        self.parked = parked
        now = self._reactor.now()
        if parked:
            self._parks.inc()
            self._parked_since = now
        else:
            self._wakes.inc()
            if (
                self._parked_since is not None
                and now - self._parked_since >= DORMANT_AFTER_MS
            ):
                self._dormant_wakes.inc()
            self._parked_since = None
        if self.on_park_change is not None:
            self.on_park_change(parked)
