"""Reactors: timers + I/O readiness + observability, simulated or real.

A reactor is the runtime's notion of "the select() loop": it owns a
:class:`~repro.timerwheel.TimerQueue` (the package's one scheduler:
precise heap, coarse timer wheel, O(1) lazy cancellation, flush hooks)
whose clock is the reactor's, optional file-descriptor readiness
sources, and the session's observability substrate — a
:class:`~repro.obs.MetricsRegistry` plus a :class:`~repro.obs.SpanTracer`
timed by this reactor's clock, so simulated-time and wall-time sessions
produce comparable traces.

The reactor counts only its own events (timer fires and cancels, I/O
wakeups). It creates the reactor-wide ``reactor.*`` and ``crypto.*``
counters up front so every snapshot carries them, but each is written
by exactly one kind of component — the pump counts ticks, the endpoint
counts datagrams out, the crypto session counts seals — which fetches
the same counter from the registry by name.

Timers are scheduled, cancelled and metered once, here on
:class:`Reactor`: each :class:`TimerHandle` is its queue entry's
callback. The simulated reactor's queue is the simulator's
:class:`~repro.simnet.eventloop.EventLoop` itself; the real reactor owns
a queue on wall time.

Session cores (:mod:`repro.session.core`) are written against the abstract
:class:`Reactor` only; whether time is simulated or real is decided by the
shell that assembles the session.
"""

from __future__ import annotations

import select
from abc import ABC, abstractmethod
from typing import Callable

from repro.clock import Clock, RealClock
from repro.errors import ReactorError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.simnet.eventloop import EventLoop
from repro.timerwheel import TimerQueue

Callback = Callable[[], None]

#: Reactor-wide counters the components increment where their events
#: happen; created with the reactor so snapshots always carry them.
SHARED_COUNTERS = (
    "reactor.ticks",
    "reactor.datagrams_in",
    "reactor.datagrams_out",
    "reactor.frames_rendered",
    "crypto.datagrams_sealed",
    "crypto.bytes_sealed",
    "crypto.datagrams_unsealed",
    "crypto.bytes_unsealed",
    "crypto.auth_failures",
    "crypto.replay_drops",
)


class TimerHandle:
    """A scheduled callback, and the timer queue entry's callback itself.

    Calling the handle fires it: it sets ``fired``, meters the reactor's
    ``reactor.timers_fired`` and ``reactor.timer_lag_ms``, then runs the
    callback. ``cancel()`` is always safe to call.
    """

    __slots__ = ("_reactor", "_when", "_callback", "_token", "fired",
                 "cancelled")

    def __init__(
        self, reactor: Reactor, when_ms: float, callback: Callback
    ) -> None:
        self._reactor = reactor
        self._when = when_ms
        self._callback = callback
        self.fired = False
        self.cancelled = False

    @property
    def active(self) -> bool:
        return not (self.fired or self.cancelled)

    def __call__(self) -> None:
        self.fired = True
        reactor = self._reactor
        reactor._timers_fired.value += 1
        reactor._timer_lag.record(max(0.0, reactor.now() - self._when))
        self._callback()

    def cancel(self) -> None:
        """Withdraw the timer; a no-op once it has fired or been cancelled."""
        if not self.active:
            return
        self.cancelled = True
        self._reactor._cancel(self._token)


class Reactor(ABC):
    """Timers + I/O sources + observability over some notion of time.

    ``timers`` is the reactor's :class:`~repro.timerwheel.TimerQueue`;
    its clock is the reactor's ``now``. ``clock_domain`` names that
    clock's time base, the one owner of the sim/real distinction every
    recorder built on this reactor reports.
    """

    clock_domain: str

    def __init__(
        self, timers: TimerQueue, registry: MetricsRegistry | None = None
    ) -> None:
        self.timers = timers
        #: Current time in milliseconds on this reactor's clock.
        self.now = timers.now
        #: The session-wide metrics registry; every layer's instruments
        #: aggregate here and render through ``registry.snapshot()``.
        self.registry = registry = (
            registry if registry is not None else MetricsRegistry()
        )
        for name in SHARED_COUNTERS:
            registry.counter(name)
        self._timers_fired = registry.counter("reactor.timers_fired")
        self._timers_cancelled = registry.counter("reactor.timers_cancelled")
        self._io_events = registry.counter("reactor.io_events")
        #: Lateness of timer callbacks (fire time minus scheduled time).
        self._timer_lag = registry.histogram("reactor.timer_lag_ms", unit="ms")
        #: Span tracer timed by this reactor's clock.
        self.tracer = SpanTracer(self.now)
        self._core_prefixes: set[str] = set()
        registry.gauge("reactor.cores", fn=lambda: len(self._core_prefixes))

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register a per-tick wire-batch flush (rx before tx).

        The sim reactor's hooks run before the simulated clock advances;
        the real reactor's at the end of every ``run_once`` iteration.
        """
        self.timers.add_flush_hook(hook)

    def register_core(self, role: str, label: str | None = None) -> str:
        """Register a session core; returns its instrument-name prefix.

        One reactor can drive many cores off a single timer heap (the
        session daemon runs N servers on one select loop). A solitary
        core keeps the bare ``server``/``client`` prefix for metric-name
        compatibility; labelled cores get ``server.s3``-style prefixes so
        every session's instruments coexist in one registry. This is the
        one place prefixes are kept unique: a prefix already taken (two
        unlabelled servers, a respawned conn id) gets a ``#2``, ``#3``…
        suffix, so no two cores ever write the same instrument.
        """
        base = role if label is None else f"{role}.{label}"
        prefix = base
        n = 1
        while prefix in self._core_prefixes:
            n += 1
            prefix = f"{base}#{n}"
        self._core_prefixes.add(prefix)
        return prefix

    def call_at(self, when_ms: float, callback: Callback) -> TimerHandle:
        """Run ``callback`` at absolute time ``when_ms``."""
        handle = TimerHandle(self, when_ms, callback)
        handle._token = self.timers.schedule_at(when_ms, handle)
        return handle

    def call_later(self, delay_ms: float, callback: Callback) -> TimerHandle:
        """Run ``callback`` after ``delay_ms`` (clamped to be non-negative)."""
        return self.call_at(self.now() + max(0.0, delay_ms), callback)

    def _cancel(self, token: int) -> None:
        self.timers.cancel(token)
        self._timers_cancelled.value += 1

    def add_reader(self, fd: int, callback: Callback) -> None:
        """Invoke ``callback`` whenever ``fd`` is readable."""
        raise ReactorError(f"{type(self).__name__} has no I/O sources")

    def remove_reader(self, fd: int) -> None:
        raise ReactorError(f"{type(self).__name__} has no I/O sources")

    @abstractmethod
    def run_for(self, duration_ms: float) -> None:
        """Run the loop for ``duration_ms`` of this reactor's time."""


class SimReactor(Reactor):
    """Reactor over the deterministic discrete-event :class:`EventLoop`.

    The loop is the reactor's timer queue, so session timers and link
    deliveries interleave in one scheduling order. Simulated endpoints
    deliver datagrams through callbacks rather than file descriptors, so
    ``add_reader`` is unsupported here; everything else — timers,
    metrics, pacing — behaves exactly like the real one, with zero timer
    lag by construction.
    """

    #: Every reactor on one simulated clock shares its time base; flight
    #: headers and the causal tracer's offset pin read this.
    clock_domain = "sim"

    def __init__(self, loop: EventLoop | None = None) -> None:
        self.loop = loop if loop is not None else EventLoop()
        super().__init__(self.loop)

    def run_for(self, duration_ms: float) -> None:
        """Advance simulated time by ``duration_ms``, firing due events."""
        self.loop.run_for(duration_ms)

    def run_until(self, when_ms: float) -> None:
        """Advance simulated time to the absolute ``when_ms``."""
        self.loop.run_until(when_ms)


class RealReactor(Reactor):
    """A ``select()`` loop over real file descriptors and wall-clock time.

    This is the paper's "single select() loop": each iteration sleeps
    until the earliest pending timer (capped by ``max_wait_ms``), wakes
    for readable descriptors, dispatches their callbacks, fires every
    due timer, then drains the flush hooks. A deadline already in the
    past is accepted and fires on the next iteration.
    """

    #: Wall-clock milliseconds, private to this process.
    clock_domain = "real"

    def __init__(self, clock: Clock | None = None) -> None:
        super().__init__(
            TimerQueue((clock if clock is not None else RealClock()).now)
        )
        self._readers: dict[int, Callback] = {}
        #: How far past the earliest timer deadline the loop woke this
        #: iteration: the live "is the select loop keeping up" signal the
        #: health monitor alerts on (a loaded loop wakes later and later).
        self._tick_lag = self.registry.gauge("reactor.tick_lag_ms")

    # -- I/O sources ----------------------------------------------------

    def add_reader(self, fd: int, callback: Callback) -> None:
        """Invoke ``callback`` whenever ``fd`` selects readable."""
        self._readers[fd] = callback

    def remove_reader(self, fd: int) -> None:
        """Stop watching ``fd`` (no-op if it was never registered)."""
        self._readers.pop(fd, None)

    # -- loop -----------------------------------------------------------

    def run_once(self, max_wait_ms: float = 20.0) -> None:
        """One select()-loop iteration: sleep, dispatch I/O, fire timers,
        then flush the wire batches."""
        deadline = self.timers.peek_time()
        wait = max_wait_ms
        if deadline is not None:
            wait = min(wait, deadline - self.now())
        wait = max(0.0, wait)
        try:
            readable, _, _ = select.select(
                list(self._readers), [], [], wait / 1000.0
            )
        except (OSError, ValueError):
            # A registered descriptor was closed under us; drop the dead
            # ones and let the caller's next iteration proceed.
            readable = []
            self._readers = {
                fd: cb for fd, cb in self._readers.items() if _fd_alive(fd)
            }
        for fd in readable:
            callback = self._readers.get(fd)
            if callback is not None:
                self._io_events.value += 1
                callback()
        if deadline is not None:
            self._tick_lag.set(max(0.0, self.now() - deadline))
        else:
            self._tick_lag.set(0.0)
        self.timers.run_due()
        # Wire-batch drain: everything queued by this iteration's I/O
        # callbacks and timers goes out in one crypto+syscall burst.
        self.timers.flush()

    def run_for(self, duration_ms: float, max_wait_ms: float = 20.0) -> None:
        """Run select()-loop iterations for ``duration_ms`` of wall time."""
        deadline = self.now() + duration_ms
        while True:
            remaining = deadline - self.now()
            if remaining <= 0:
                return
            self.run_once(min(max_wait_ms, remaining))


def _fd_alive(fd: int) -> bool:
    try:
        select.select([fd], [], [], 0)
        return True
    except (OSError, ValueError):
        return False
