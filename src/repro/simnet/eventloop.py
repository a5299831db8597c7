"""Discrete-event scheduler with a simulated millisecond clock.

Events fire in timestamp order; ties break by scheduling order, which makes
every simulation fully deterministic for a given seed and call sequence.

Scheduling is two-tier: near-term events go straight onto the precise
heap, while coarse ones (heartbeats, reap deadlines, idle pump re-arms —
anything :data:`~repro.timerwheel.WHEEL_THRESHOLD_MS` or further out)
land in a :class:`~repro.timerwheel.TimerWheel` in O(1) and migrate to
the heap lazily as the clock approaches. Migrated entries are the same
``(when, token, callback)`` tuples a heap-only loop would hold, so firing
order — and therefore every simulation — is that of a plain heap.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.clock import SimulatedClock
from repro.errors import SimulationError
from repro.timerwheel import WHEEL_THRESHOLD_MS, TimerWheel

Callback = Callable[[], None]


class EventLoop:
    """A priority-queue event loop driving a :class:`SimulatedClock`."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self.clock = SimulatedClock(start_ms)
        self._queue: list[tuple[float, int, Callback]] = []
        self._wheel = TimerWheel()
        self._counter = 0
        # Tokens of queued events that have neither fired nor been
        # cancelled. Cancellation is lazy (entries stay in the heap until
        # popped), but membership here is the single source of truth, so
        # cancelling an already-fired token is a true no-op and nothing
        # accumulates unboundedly under heavy cancel/re-arm churn.
        self._live: set[int] = set()
        # Tick-boundary flush hooks (wire batchers). Each is called with
        # no arguments and returns how much work it performed; the loop
        # runs them before the clock advances past the current timestamp,
        # so batched sends/receives hit the wire at the same simulated
        # instant they were queued.
        self._flush_hooks: list[Callable[[], int]] = []

    def now(self) -> float:
        return self.clock.now()

    def schedule_at(self, when_ms: float, callback: Callback) -> int:
        """Schedule ``callback`` at absolute time; returns a cancel token."""
        if when_ms < self.clock.now():
            raise SimulationError(
                f"cannot schedule in the past: now={self.clock.now()} "
                f"when={when_ms}"
            )
        token = self._counter
        self._counter += 1
        entry = (when_ms, token, callback)
        if when_ms - self.clock.now() >= WHEEL_THRESHOLD_MS:
            self._wheel.add(entry, self.clock.now())
        else:
            heapq.heappush(self._queue, entry)
        self._live.add(token)
        return token

    def schedule(self, delay_ms: float, callback: Callback) -> int:
        """Schedule ``callback`` after a relative delay."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay {delay_ms}")
        return self.schedule_at(self.clock.now() + delay_ms, callback)

    def cancel(self, token: int) -> None:
        """Cancel a scheduled event (no-op if it already fired)."""
        self._live.discard(token)

    @property
    def pending(self) -> int:
        """Number of live (scheduled, uncancelled, unfired) events."""
        return len(self._live)

    def _heap_top(self) -> float | None:
        """Earliest live heap deadline (dead entries skimmed off)."""
        queue = self._queue
        live = self._live
        while queue and queue[0][1] not in live:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def _heap_push(self, entry: tuple[float, int, Callback]) -> None:
        heapq.heappush(self._queue, entry)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        wheel = self._wheel
        if wheel:
            # Lazy cascade: pull wheel buckets onto the heap only until
            # the heap's top is provably the global minimum.
            wheel.drain_into(self._heap_push, self._heap_top)
        return self._heap_top()

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register a tick-boundary flush hook (see ``_flush``).

        Hooks run in registration order; register receive-side flushes
        before send-side ones so a burst's replies join the same tick's
        outgoing batch.
        """
        self._flush_hooks.append(hook)

    def _flush(self) -> None:
        """Run flush hooks to quiescence (bounded rounds).

        A receive flush can queue sends and vice versa, so hooks loop
        until a full round reports no work. The bound is a safety net —
        two rounds settle every real pipeline.
        """
        hooks = self._flush_hooks
        if not hooks:
            return
        for _ in range(8):
            work = 0
            for hook in hooks:
                work += hook()
            if not work:
                return

    def _pop_and_run(self) -> None:
        when, token, callback = heapq.heappop(self._queue)
        if token not in self._live:
            return
        self._live.discard(token)
        self.clock.advance_to(when)
        callback()

    def run_until(self, when_ms: float) -> None:
        """Run all events with time <= ``when_ms``, then set now to it.

        Flush hooks fire whenever the clock is about to advance (and once
        at the end), so every event sharing a timestamp contributes to
        one batch and the batch drains before simulated time moves on.
        """
        while True:
            next_time = self.peek_time()
            if (
                next_time is None
                or next_time > when_ms
                or next_time > self.clock.now()
            ):
                # Tick boundary: drain batched work before the clock
                # advances (or before returning). The flush may schedule
                # new events — deliveries, retransmit timers — so re-peek
                # and keep going if any now fall inside the window.
                self._flush()
                next_time = self.peek_time()
                if next_time is None or next_time > when_ms:
                    break
            self._pop_and_run()
        if when_ms > self.clock.now():
            self.clock.advance_to(when_ms)

    def run_for(self, duration_ms: float) -> None:
        """Run events for a relative duration."""
        self.run_until(self.clock.now() + duration_ms)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        for _ in range(max_events):
            next_time = self.peek_time()
            if next_time is None or next_time > self.clock.now():
                # Tick boundary (same contract as run_until): flush
                # batched work before advancing, and only stop once a
                # flush produces no new events.
                self._flush()
                if self.peek_time() is None:
                    return
            self._pop_and_run()
        raise SimulationError(f"event loop still busy after {max_events} events")
