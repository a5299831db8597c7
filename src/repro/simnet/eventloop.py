"""Discrete-event scheduler with a simulated millisecond clock.

Events fire in timestamp order; ties break by scheduling order, which makes
every simulation fully deterministic for a given seed and call sequence.

:class:`EventLoop` is the package's one :class:`~repro.timerqueue.TimerQueue`
(heap, lazy cancellation, flush hooks) driven by a
:class:`~repro.clock.SimulatedClock`: the loop jumps the clock to each
event in turn. Link deliveries and the :class:`~repro.runtime.SimReactor`'s
timers share its token counter, so their ties also fire in scheduling
order. Unlike the wall-clock reactor, a deadline in the past is an error.
"""

from __future__ import annotations

from typing import Callable

from repro.clock import SimulatedClock
from repro.errors import SimulationError
from repro.timerqueue import TimerQueue

Callback = Callable[[], None]


class EventLoop(TimerQueue):
    """A :class:`TimerQueue` driving a :class:`SimulatedClock`.

    Flush hooks (wire batchers) run before the clock advances past the
    current timestamp, so batched sends/receives hit the wire at the same
    simulated instant they were queued.
    """

    def __init__(self) -> None:
        self.clock = SimulatedClock()
        super().__init__(self.clock.now)

    def _past_deadline(self, when_ms: float, now_ms: float) -> None:
        raise SimulationError(
            f"cannot schedule in the past: now={now_ms} when={when_ms}"
        )

    def schedule(self, delay_ms: float, callback: Callback) -> int:
        """Schedule ``callback`` after a relative delay."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay {delay_ms}")
        return self.schedule_at(self.now() + delay_ms, callback)

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
                or next_time > self.now()
            ):
                # Tick boundary: drain batched work before the clock
                # advances (or before returning). The flush may schedule
                # new events — deliveries, retransmit timers — so re-peek
                # and keep going if any now fall inside the window.
                self.flush()
                next_time = self.peek_time()
                if next_time is None or next_time > when_ms:
                    break
            when, callback = self.pop()
            self.clock.advance_to(when)
            callback()
        if when_ms > self.now():
            self.clock.advance_to(when_ms)

    def run_for(self, duration_ms: float) -> None:
        """Run events for a relative duration."""
        self.run_until(self.now() + duration_ms)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        for _ in range(max_events):
            next_time = self.peek_time()
            if next_time is None or next_time > self.now():
                # Tick boundary (same contract as run_until): flush
                # batched work before advancing, and only stop once a
                # flush produces no new events.
                self.flush()
                if self.peek_time() is None:
                    return
            when, callback = self.pop()
            self.clock.advance_to(when)
            callback()
        raise SimulationError(f"event loop still busy after {max_events} events")
