"""Hierarchical timer wheel: O(1) scheduling for coarse, high-churn timers.

The reactor's timer heap is exact but pays O(log n) per operation with
*n* counting every pending timer in the process. A muxed daemon holding
10k mostly-idle sessions keeps ~2 timers per session permanently armed
(the pump's heartbeat re-arm and the reaper's idle deadline), and each
re-arm is a cancel + push against a 20k-entry heap. None of those timers
needs heap precision at scheduling time: a heartbeat due 3000 ms out only
needs to be *findable* once the clock gets near it.

:class:`TimerWheel` is the coarse tier sitting behind the precise heap:

* **Schedule is O(1)** — an entry lands in a bucket keyed by
  ``when // slot_width``; buckets are dict entries, so the wheel never
  wraps and never resizes.
* **Cancel is O(1) and external** — the wheel is deliberately oblivious
  to cancellation. Callers keep their existing lazy-deletion ``_live``
  token set; dead entries ride along until their bucket drains and are
  skimmed off the heap exactly like directly-scheduled dead timers.
* **Cascade is lazy and amortized O(1)** — nothing moves until the
  caller asks "what fires next?". :meth:`drain_into` then migrates just
  enough buckets into the precise heap to make the heap's top the true
  global minimum: far (level-1) buckets re-bucket into fine (level-0)
  buckets, fine buckets feed the heap. Each entry moves at most twice
  over its lifetime.

Because migrated entries enter the heap as the *same* ``(when, token,
…)`` tuples the caller would have pushed directly, firing order is
byte-for-byte identical to a heap-only scheduler — the wheel is purely
an execution-strategy change, pinned by the randomized parity tests in
``tests/test_timerwheel.py`` against a plain ``heapq`` reference model.

The module depends on nothing in the package, so both the simulator's
event loop and the real reactor import it without an import cycle.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

#: Timers due sooner than this stay on the precise heap; at or beyond it
#: they take the wheel. One level-0 slot: anything coarser than a slot
#: cannot lose ordering by being bucketed.
WHEEL_THRESHOLD_MS = 100.0

#: Level-0 slot width (ms) and slots-per-level fan-out. Level 0 buckets
#: 100 ms; level 1 buckets 6.4 s and is keyed by an unbounded dict, so
#: two levels cover every delay without an overflow list.
WHEEL_SLOT_MS = 100.0
WHEEL_SPAN = 64


class TimerWheel:
    """Two-level dict-bucket timer wheel feeding a precise heap.

    Entries are caller-shaped tuples whose first element is the absolute
    fire time in ms (``(when, token, callback)`` for the sim loop,
    ``(when, token, callback, handle)`` for the real reactor); the wheel
    only reads ``entry[0]``.
    """

    __slots__ = ("_slot0", "_slot1", "_buckets0", "_buckets1",
                 "_starts0", "_starts1", "_count")

    def __init__(
        self, slot_ms: float = WHEEL_SLOT_MS, span: int = WHEEL_SPAN
    ) -> None:
        self._slot0 = float(slot_ms)
        self._slot1 = float(slot_ms) * span
        #: bucket index -> list of entries, per level. A bucket and its
        #: index-heap entry are created and destroyed together, so the
        #: index heaps never hold stale keys.
        self._buckets0: dict[int, list] = {}
        self._buckets1: dict[int, list] = {}
        self._starts0: list[int] = []
        self._starts1: list[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, entry: Sequence, now_ms: float) -> None:
        """File ``entry`` (fire time ``entry[0]``) in O(1).

        Level is chosen by distance: within one level-1 slot of now the
        entry gets a fine (level-0) bucket, further out a coarse one.
        """
        when = entry[0]
        if when - now_ms < self._slot1:
            index = int(when // self._slot0)
            bucket = self._buckets0.get(index)
            if bucket is None:
                self._buckets0[index] = [entry]
                heapq.heappush(self._starts0, index)
            else:
                bucket.append(entry)
        else:
            index = int(when // self._slot1)
            bucket = self._buckets1.get(index)
            if bucket is None:
                self._buckets1[index] = [entry]
                heapq.heappush(self._starts1, index)
            else:
                bucket.append(entry)
        self._count += 1

    def next_bucket_start(self) -> float | None:
        """Earliest bucket's start time — a lower bound on every entry."""
        best: float | None = None
        if self._starts0:
            best = self._starts0[0] * self._slot0
        if self._starts1:
            start1 = self._starts1[0] * self._slot1
            if best is None or start1 < best:
                best = start1
        return best

    def drain_into(
        self,
        push: Callable[[Sequence], None],
        heap_top: Callable[[], float | None],
    ) -> int:
        """Migrate buckets until the heap's top is the global minimum.

        ``heap_top()`` returns the heap's earliest *live* deadline (None
        when empty) and is re-read after every bucket because pushes can
        lower it. A bucket whose start precedes the heap top may hold
        the next timer to fire, so it drains: level-1 buckets cascade
        into level-0 buckets (one slot of re-bucketing), level-0 buckets
        feed the heap. Buckets at or past the heap top stay untouched —
        this is the lazy cascade, and it is what keeps a 10k-session
        daemon's heap holding only near-term timers.

        Returns the number of entries pushed onto the heap.
        """
        moved = 0
        while self._count:
            start0 = self._starts0[0] * self._slot0 if self._starts0 else None
            start1 = self._starts1[0] * self._slot1 if self._starts1 else None
            if start0 is not None and (start1 is None or start0 <= start1):
                start, fine = start0, True
            elif start1 is not None:
                start, fine = start1, False
            else:  # pragma: no cover - _count and buckets disagree
                break
            top = heap_top()
            if top is not None and start >= top:
                break
            if fine:
                index = heapq.heappop(self._starts0)
                entries = self._buckets0.pop(index)
                self._count -= len(entries)
                for entry in entries:
                    push(entry)
                moved += len(entries)
            else:
                # Cascade: one coarse slot re-buckets finely. Entries
                # keep their original tuples, so ordering is untouched.
                index = heapq.heappop(self._starts1)
                entries = self._buckets1.pop(index)
                buckets0 = self._buckets0
                slot0 = self._slot0
                for entry in entries:
                    sub = int(entry[0] // slot0)
                    bucket = buckets0.get(sub)
                    if bucket is None:
                        buckets0[sub] = [entry]
                        heapq.heappush(self._starts0, sub)
                    else:
                        bucket.append(entry)
        return moved
