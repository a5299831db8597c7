"""The scheduler: one timer queue behind both the simulated and the real loop.

:class:`TimerQueue` is the only timer scheduler in the package. The
simulator's :class:`~repro.simnet.eventloop.EventLoop` *is* one (driven
by a :class:`~repro.clock.SimulatedClock`), and the select loop's
:class:`~repro.runtime.reactor.RealReactor` owns one (driven by wall
time). It keeps three things:

* **A heap** of ``(when, token, callback)`` entries. Ties break by
  token, i.e. by scheduling order, so a run is deterministic for a
  given call sequence.
* **A live-token set.** Cancellation is lazy: ``cancel`` is O(1), and
  dead entries are skimmed off when they reach the heap's top.
* **Tick-boundary flush hooks** (the wire batchers), run to quiescence
  in at most :data:`FLUSH_ROUNDS` rounds.

The module depends on nothing in the package, so both the simulator and
the reactor runtime import it without an import cycle.
"""

from __future__ import annotations

import heapq
from typing import Callable

#: Upper bound on flush-hook rounds per tick boundary. A receive flush
#: can queue sends and vice versa; two rounds settle every real pipeline,
#: the rest is a safety net.
FLUSH_ROUNDS = 8

Callback = Callable[[], None]


class TimerQueue:
    """Heap + lazy cancellation + flush hooks.

    ``now`` is the clock every scheduling decision and due check reads;
    it is kept as the queue's own ``now`` attribute.
    """

    def __init__(self, now: Callable[[], float]) -> None:
        self.now = now
        self._heap: list[tuple[float, int, Callback]] = []
        self._counter = 0
        # Tokens of queued entries that have neither fired nor been
        # cancelled. Membership here is the single source of truth, so
        # cancelling an already-fired token is a true no-op and nothing
        # accumulates under heavy cancel/re-arm churn.
        self._live: set[int] = set()
        self._flush_hooks: list[Callable[[], int]] = []

    def schedule_at(self, when_ms: float, callback: Callback) -> int:
        """Queue ``callback`` at absolute time ``when_ms``; returns its
        cancel token."""
        now = self.now()
        if when_ms < now:
            self._past_deadline(when_ms, now)
        token = self._counter
        self._counter = token + 1
        heapq.heappush(self._heap, (when_ms, token, callback))
        self._live.add(token)
        return token

    def _past_deadline(self, when_ms: float, now_ms: float) -> None:
        """A deadline already behind the clock: queued anyway, and due at
        once (wall time moves on between computing a deadline and
        scheduling it). The simulator overrides this to reject it."""

    def cancel(self, token: int) -> None:
        """Withdraw an entry (a no-op once it has fired)."""
        self._live.discard(token)

    @property
    def pending(self) -> int:
        """Number of live (scheduled, uncancelled, unfired) entries."""
        return len(self._live)

    @property
    def queued(self) -> int:
        """Entries held in the heap, live or dead."""
        return len(self._heap)

    def peek_time(self) -> float | None:
        """Time of the next live entry, or None if nothing is pending.

        Dead entries are skimmed off the top of the heap on the way.
        """
        heap = self._heap
        live = self._live
        while heap and heap[0][1] not in live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop(self) -> tuple[float, Callback]:
        """Remove the next live entry; returns ``(when, callback)``.

        Call only after :meth:`peek_time` returned a time: that skim
        leaves a live entry on top of the heap.
        """
        when, token, callback = heapq.heappop(self._heap)
        self._live.discard(token)
        return when, callback

    def run_due(self) -> None:
        """Run every entry whose deadline the clock has reached, re-reading
        the clock after each (callbacks take wall time)."""
        while True:
            deadline = self.peek_time()
            if deadline is None or deadline > self.now():
                return
            self.pop()[1]()

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register a tick-boundary flush hook (see :meth:`flush`).

        Hooks run in registration order; register receive-side flushes
        before send-side ones so a burst's replies join the same tick's
        outgoing batch.
        """
        self._flush_hooks.append(hook)

    def flush(self) -> None:
        """Run flush hooks to quiescence (at most :data:`FLUSH_ROUNDS`).

        Each hook returns how much work it did; rounds repeat until a
        full round reports none.
        """
        hooks = self._flush_hooks
        if not hooks:
            return
        for _ in range(FLUSH_ROUNDS):
            work = 0
            for hook in hooks:
                work += hook()
            if not work:
                return
