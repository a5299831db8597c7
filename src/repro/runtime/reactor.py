"""Reactors: timers + I/O readiness + observability, simulated or real.

A reactor is the runtime's notion of "the select() loop": it owns a clock,
a timer heap with cheap cancellation (lazy deletion — ``cancel`` is O(1),
the heap pop that skims dead entries is O(log n) amortized), optional
file-descriptor readiness sources, and the session's observability
substrate — a :class:`~repro.obs.MetricsRegistry` plus a
:class:`~repro.obs.SpanTracer` timed by this reactor's clock, so
simulated-time and wall-time sessions produce comparable traces.

The reactor counts only its own events (timer fires and cancels, I/O
wakeups). It creates the reactor-wide ``reactor.*`` and ``crypto.*``
counters up front so every snapshot carries them, but each is written
by exactly one kind of component — the pump counts ticks, the endpoint
counts datagrams out, the crypto session counts seals — which fetches
the same counter from the registry by name.

Session cores (:mod:`repro.session.core`) are written against the abstract
:class:`Reactor` only; whether time is simulated or real is decided by the
shell that assembles the session.
"""

from __future__ import annotations

import heapq
import select
from abc import ABC, abstractmethod
from typing import Callable

from repro.clock import Clock, RealClock
from repro.errors import ReactorError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.simnet.eventloop import EventLoop
from repro.timerwheel import WHEEL_THRESHOLD_MS, TimerWheel

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
    """A scheduled callback; ``cancel()`` is always safe to call."""

    __slots__ = ("_canceller", "fired", "cancelled")

    def __init__(self, canceller: Callback) -> None:
        self._canceller = canceller
        self.fired = False
        self.cancelled = False

    @property
    def active(self) -> bool:
        return not (self.fired or self.cancelled)

    def cancel(self) -> None:
        """Withdraw the timer; a no-op once it has fired or been cancelled."""
        if not self.active:
            return
        self.cancelled = True
        self._canceller()


class Reactor(ABC):
    """Timers + I/O sources + observability over some notion of time."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
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
        #: 10 µs..1 min spans sim (zero-lag) through a loaded select loop.
        self._timer_lag = registry.histogram(
            "reactor.timer_lag_ms", low=0.01, high=60_000.0, unit="ms"
        )
        #: Span tracer timed by this reactor's clock (``now`` is abstract
        #: but only sampled at span time, after subclass init completes).
        self.tracer = SpanTracer(self.now)
        self._core_prefixes: set[str] = set()
        registry.gauge("reactor.cores", fn=lambda: len(self._core_prefixes))

    def _timer_fired(self, lag_ms: float) -> None:
        self._timers_fired.value += 1
        self._timer_lag.record(lag_ms)

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register a per-tick wire-batch flush (rx before tx).

        Sim reactors delegate to the event loop (flushes run before the
        simulated clock advances); the real reactor runs hooks at the end
        of every ``run_once`` iteration.
        """
        raise ReactorError(f"{type(self).__name__} has no flush hooks")

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

    @abstractmethod
    def now(self) -> float:
        """Current time in milliseconds."""

    @abstractmethod
    def call_at(self, when_ms: float, callback: Callback) -> TimerHandle:
        """Run ``callback`` at absolute time ``when_ms``."""

    def call_later(self, delay_ms: float, callback: Callback) -> TimerHandle:
        """Run ``callback`` after ``delay_ms`` (clamped to be non-negative)."""
        return self.call_at(self.now() + max(0.0, delay_ms), callback)

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

    Simulated endpoints deliver datagrams through callbacks rather than
    file descriptors, so ``add_reader`` is unsupported here; everything
    else — timers, metrics, pacing — behaves exactly like the real one,
    with zero timer lag by construction.
    """

    def __init__(self, loop: EventLoop | None = None) -> None:
        super().__init__()
        self.loop = loop if loop is not None else EventLoop()

    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.loop.now()

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Flush hooks ride the event loop's tick boundaries."""
        self.loop.add_flush_hook(hook)

    def call_at(self, when_ms: float, callback: Callback) -> TimerHandle:
        """Schedule ``callback`` on the simulated event loop."""
        token_box: list[int] = []
        handle = TimerHandle(lambda: self._cancel(token_box[0]))

        def fire() -> None:
            handle.fired = True
            self._timer_fired(max(0.0, self.now() - when_ms))
            callback()

        token_box.append(self.loop.schedule_at(when_ms, fire))
        return handle

    def _cancel(self, token: int) -> None:
        self.loop.cancel(token)
        self._timers_cancelled.value += 1

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
    for readable descriptors, dispatches their callbacks, then fires every
    due timer. Cancelled timers are skimmed off the heap lazily.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        super().__init__()
        self._clock = clock if clock is not None else RealClock()
        self._heap: list[tuple[float, int, Callback, TimerHandle]] = []
        self._wheel = TimerWheel()
        self._counter = 0
        self._live: set[int] = set()
        self._readers: dict[int, Callback] = {}
        self._flush_hooks: list[Callable[[], int]] = []
        #: How far past the earliest timer deadline the loop woke this
        #: iteration: the live "is the select loop keeping up" signal the
        #: health monitor alerts on (a loaded loop wakes later and later).
        self._tick_lag = self.registry.gauge("reactor.tick_lag_ms")

    def now(self) -> float:
        """Current wall-clock time in milliseconds (monotonic)."""
        return self._clock.now()

    # -- timers ---------------------------------------------------------

    def call_at(self, when_ms: float, callback: Callback) -> TimerHandle:
        """Schedule ``callback`` at absolute wall-clock time ``when_ms``.

        Coarse timers (one wheel threshold or further out) take the O(1)
        timer wheel; near-term ones go straight onto the precise heap.
        """
        token = self._counter
        self._counter += 1
        handle = TimerHandle(lambda: self._cancel(token))
        entry = (when_ms, token, callback, handle)
        if when_ms - self.now() >= WHEEL_THRESHOLD_MS:
            self._wheel.add(entry, self.now())
        else:
            heapq.heappush(self._heap, entry)
        self._live.add(token)
        return handle

    def _cancel(self, token: int) -> None:
        self._live.discard(token)
        self._timers_cancelled.value += 1

    def _heap_top(self) -> float | None:
        while self._heap and self._heap[0][1] not in self._live:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def _heap_push(
        self, entry: tuple[float, int, Callback, TimerHandle]
    ) -> None:
        heapq.heappush(self._heap, entry)

    def _next_deadline(self) -> float | None:
        wheel = self._wheel
        if wheel:
            wheel.drain_into(self._heap_push, self._heap_top)
        return self._heap_top()

    def _fire_due(self) -> None:
        while True:
            deadline = self._next_deadline()
            if deadline is None or deadline > self.now():
                return
            when, token, callback, handle = heapq.heappop(self._heap)
            self._live.discard(token)
            handle.fired = True
            self._timer_fired(max(0.0, self.now() - when))
            callback()

    # -- I/O sources ----------------------------------------------------

    def add_reader(self, fd: int, callback: Callback) -> None:
        """Invoke ``callback`` whenever ``fd`` selects readable."""
        self._readers[fd] = callback

    def remove_reader(self, fd: int) -> None:
        """Stop watching ``fd`` (no-op if it was never registered)."""
        self._readers.pop(fd, None)

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Run ``hook`` at the end of every ``run_once`` iteration."""
        self._flush_hooks.append(hook)

    # -- loop -----------------------------------------------------------

    def run_once(self, max_wait_ms: float = 20.0) -> None:
        """One select()-loop iteration: sleep, dispatch I/O, fire timers."""
        deadline = self._next_deadline()
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
        self._fire_due()
        if self._flush_hooks:
            # Wire-batch drain: everything queued by this iteration's I/O
            # callbacks and timers goes out in one crypto+syscall burst.
            for _ in range(8):
                work = 0
                for hook in self._flush_hooks:
                    work += hook()
                if not work:
                    break

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
