"""Session lifecycle for the one-port daemon.

A :class:`SessionManager` owns the sessions living behind one
:class:`~repro.daemon.mux.SessionMux`: it spawns them (key + virtual
endpoint + :class:`~repro.session.core.ServerCore` + optionally a pty)
and tears them down. Mosh's one-process-per-session model never needed a
reaper (the process *was* the lifetime); once N sessions share a
process, lifetime must be explicit.

Reaping is O(active), not O(sessions): instead of a periodic sweep over
every record, each session owns one idle-deadline timer armed at
``last_heard + idle_timeout`` on the reactor's timer queue. The timer
fires O(1) work and simply re-arms from the fresh ``last_heard`` when the
session turns out to be alive — so a daemon full of parked sessions does
*zero* per-tick reaper work, and a 10k-session fleet costs one heap push
per session per timeout period. Dead ptys are collected event-driven: a
pty EOF wakes its reader, which closes the session on the spot.

A session's state is its pump's :class:`~repro.runtime.pump.SessionState`.
Every spawned pump joins the manager's census, which its transitions keep
current, and the ``daemon.sessions_*`` gauges read it. Close, reap and
pty exit run one teardown (:meth:`SessionManager.close`), after which
nothing live references the session.

The manager is substrate-neutral. It needs only a reactor and anything
with ``open_endpoint(session, conn_id=, mtu=)`` — the real daemon passes
a :class:`~repro.network.connection.MuxUdpConnection`, the simulator
passes the :class:`~repro.daemon.mux.SessionMux` directly. Ptys are
injected via ``pty_factory`` so simulated daemons run without processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.crypto.keys import Base64Key
from repro.crypto.session import Session
from repro.daemon.mux import VirtualEndpoint
from repro.errors import ReactorError
from repro.obs.flight import FlightRecorder
from repro.runtime.pump import (
    ACTIVE,
    CLOSED,
    EXITED,
    PARKED,
    REAPED,
    TRANSITIONS,
    SessionState,
)
from repro.runtime.reactor import Reactor, TimerHandle
from repro.session.core import ServerCore

#: Floor on a re-armed idle deadline, so a deadline landing just before
#: expiry cannot busy-loop the timer.
REAP_INTERVAL_MIN_MS = 250.0

#: Slack added past the exact expiry instant: reaping requires idle
#: strictly greater than the timeout, so fire just after, never at, it.
REAP_DEADLINE_SLACK_MS = 1.0

#: Fallback pty-liveness sweep cadence for sessions without an idle
#: timeout. EOF-driven collection is the primary path; this catches a
#: child that dies without its master fd ever selecting readable.
PTY_SWEEP_INTERVAL_MS = 1000.0


@dataclass(slots=True, eq=False)
class SessionRecord:
    """Everything the daemon holds for one live session."""

    conn_id: int
    key: Base64Key
    session: Session
    endpoint: VirtualEndpoint
    core: ServerCore
    pty: Any
    created_at: float
    #: This session's idle-deadline timer, if any.
    reap_timer: TimerHandle | None = None

    def last_heard(self) -> float:
        """Last authenticated-traffic time (creation time until then)."""
        heard = self.endpoint.last_heard
        return self.created_at if heard is None else heard

    def connect_line(self, port: int) -> str:
        """This session's bootstrap line.

        The first four fields are exactly mosh-server's ``MOSH CONNECT
        <port> <key>``; the daemon appends the connection id as a fifth
        field, which a client needs: the port routes by that id only.
        """
        return f"MOSH CONNECT {port} {self.key.printable()} {self.conn_id}"


class SessionManager:
    """Spawn/attach/reap lifecycle for the sessions behind one mux."""

    def __init__(
        self,
        reactor: Reactor,
        port: Any,
        pty_factory: Callable[..., Any] | None = None,
        idle_timeout_ms: float | None = None,
        flight_factory: Callable[[int], FlightRecorder] | None = None,
    ) -> None:
        if idle_timeout_ms is not None and not (
            math.isfinite(idle_timeout_ms) and idle_timeout_ms > 0
        ):
            raise ReactorError(
                f"idle timeout must be finite and > 0, not {idle_timeout_ms}"
            )
        self._reactor = reactor
        self._port = port
        self._pty_factory = pty_factory
        self._flight_factory = flight_factory
        self._idle_timeout_ms = idle_timeout_ms
        self._records: dict[int, SessionRecord] = {}
        #: Pumps per lifecycle state, kept by their transitions.
        census = self._census = dict.fromkeys(SessionState, 0)
        registry = reactor.registry
        self._spawned = registry.counter("daemon.sessions_spawned")
        for name in dict.fromkeys(TRANSITIONS.values()):
            registry.counter(name)
        #: Idle-deadline timer fires; the regression tests assert this
        #: stays flat as the parked-session count grows.
        self._reap_checks = registry.counter("daemon.reap_checks")
        registry.gauge(
            "daemon.sessions_open", fn=lambda: census[ACTIVE] + census[PARKED]
        )
        registry.gauge("daemon.sessions_parked", fn=lambda: census[PARKED])
        registry.gauge("daemon.sessions_active", fn=lambda: census[ACTIVE])
        # Fleet-wide flight-ring footprint: occupancy and the memory
        # ceiling across every session's recorder, so a capped daemon can
        # prove its forensic memory stays bounded as sessions accumulate.
        registry.gauge(
            "daemon.flight.events_total", fn=self._flight_events_total
        )
        registry.gauge(
            "daemon.flight.capacity_total", fn=self._flight_capacity_total
        )

    def _flight_events_total(self) -> int:
        return sum(
            len(r.endpoint.flight)
            for r in self._records.values()
            if r.endpoint.flight is not None
        )

    def _flight_capacity_total(self) -> int:
        return sum(
            r.endpoint.flight.capacity
            for r in self._records.values()
            if r.endpoint.flight is not None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def conn_ids(self) -> list[int]:
        return sorted(self._records)

    def get(self, conn_id: int) -> SessionRecord | None:
        return self._records.get(conn_id)

    def records(self) -> list[SessionRecord]:
        return [self._records[cid] for cid in sorted(self._records)]

    def spawn(
        self,
        key: Base64Key | None = None,
        conn_id: int | None = None,
        width: int = 80,
        height: int = 24,
        argv: list[str] | None = None,
        label: str | None = "auto",
        mtu: int = 500,
        timing: Any = None,
    ) -> SessionRecord:
        """Bring up one complete session on the shared port.

        ``label`` scopes the session's instrument names; the default
        derives ``s<conn_id>``, and an explicit ``None`` keeps the bare
        ``server`` prefix (single-session compatibility shells).
        """
        key = key or Base64Key.new()
        session = Session(key)
        endpoint = self._port.open_endpoint(session, conn_id=conn_id, mtu=mtu)
        cid = endpoint.conn_id
        assert cid is not None
        if label == "auto":
            label = f"s{cid}"
        if self._flight_factory is not None:
            # Attached before the core so the pump publishes ring gauges
            # under this session's labelled role.
            endpoint.flight = self._flight_factory(cid)
        core = ServerCore(
            self._reactor, endpoint, width, height, timing=timing, label=label
        )
        record = SessionRecord(
            cid, key, session, endpoint, core, pty=None,
            created_at=self._reactor.now(),
        )
        if self._pty_factory is not None:
            record.pty = pty = self._pty_factory(argv, width, height)
            core.on_input = pty.write
            core.on_resize = pty.set_size
            self._reactor.add_reader(
                pty.fileno(), lambda: self._pty_readable(record)
            )
        self._records[cid] = record
        core.pump.census = self._census
        self._census[core.pump.state] += 1
        self._spawned.value += 1
        # Live staleness gauge for remote dashboards (`repro top`): how
        # long since this session last heard authentic traffic.
        now = self._reactor.now
        self._reactor.registry.gauge(
            f"{core.role}.last_heard_age_ms",
            fn=lambda: max(0.0, now() - record.last_heard()),
        )
        self._arm_session_deadline(record)
        core.kick()
        return record

    def _pty_readable(self, record: SessionRecord) -> None:
        data = record.pty.read_available()
        if data:
            replies = record.core.host_write(data)
            if replies:
                record.pty.write(replies)
        elif not record.pty.alive():
            # EOF on a dead child: collect the session right here,
            # event-driven, instead of waiting for any sweep.
            self.close(record.conn_id, EXITED)

    def close(self, conn_id: int, state: SessionState = CLOSED) -> bool:
        """The one teardown: seal the session in the terminal ``state``
        and drop its timers, instruments, pty, reader and route."""
        record = self._records.pop(conn_id, None)
        if record is None:
            return False
        record.core.close(state)
        if record.reap_timer is not None:
            record.reap_timer.cancel()
            record.reap_timer = None
        if record.pty is not None:
            self._reactor.remove_reader(record.pty.fileno())
            record.pty.terminate()
        record.endpoint.close()
        return True

    def close_all(self) -> None:
        for conn_id in list(self._records):
            self.close(conn_id)

    # ------------------------------------------------------------------
    # Idle reaper — per-session deadlines on the timer queue
    # ------------------------------------------------------------------

    def _arm_session_deadline(
        self, record: SessionRecord, delay_ms: float | None = None
    ) -> None:
        """Arm this session's next lifetime check.

        With an idle timeout the deadline sits at ``last_heard +
        timeout``, so nothing at all runs for the session until the
        earliest instant it could possibly expire. Pty-only sessions (no
        timeout) get the slow fallback liveness sweep.
        """
        if delay_ms is None:
            if self._idle_timeout_ms is not None:
                delay_ms = self._idle_timeout_ms + REAP_DEADLINE_SLACK_MS
            elif record.pty is not None:
                delay_ms = PTY_SWEEP_INTERVAL_MS
            else:
                return
        record.reap_timer = self._reactor.call_later(
            delay_ms, lambda: self._session_deadline(record)
        )

    def _session_deadline(self, record: SessionRecord) -> None:
        """One session's lifetime check: O(1), fires only when it could
        actually be due — never as a scan over the fleet. Teardown
        cancels it, so the session is still open."""
        record.reap_timer = None
        self._reap_checks.value += 1
        timeout = self._idle_timeout_ms
        if record.pty is not None and not record.pty.alive():
            self.close(record.conn_id, EXITED)
            return
        if timeout is None:
            self._arm_session_deadline(record, PTY_SWEEP_INTERVAL_MS)
            return
        idle = self._reactor.now() - record.last_heard()
        if idle > timeout:
            self.close(record.conn_id, REAPED)
            return
        # Heard since: re-arm at the fresh last-heard's expiry.
        remaining = timeout - idle + REAP_DEADLINE_SLACK_MS
        self._arm_session_deadline(record, max(remaining, REAP_INTERVAL_MIN_MS))
